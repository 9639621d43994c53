package explore

// Golden-replay determinism tests (unit-level): every campaign the repo
// ships — atomicity, escalation, cluster, and explore — must serialise to
// byte-identical JSON when re-run with the same seed. The CI campaigns catch
// determinism regressions eventually; these tests catch them in `go test`
// with small configurations, and pin the JSON encodings of the campaign
// outcome types (a dropped tag or reordered field shows up as a diff here).

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// goldenJSON marshals v twice around a re-computation and requires equality.
func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenAtomicityCampaign(t *testing.T) {
	mk := registry.Factories(7)["kvstore"]
	run := func() []byte {
		outcomes, err := recovery.CheckAtomicity(mk, recovery.AtomicityConfig{Seed: 7, Warm: 30, Settle: 10})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, outcomes)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("atomicity outcomes diverged across same-seed runs:\n%s\n%s", a, b)
	}
}

func TestGoldenEscalationCampaign(t *testing.T) {
	mk := registry.Factories(7)["kvstore"]
	run := func() []byte {
		out, err := recovery.CheckEscalation(mk, recovery.EscalationConfig{Seed: 7, Warm: 30, Settle: 10})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, out)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("escalation outcomes diverged across same-seed runs:\n%s\n%s", a, b)
	}
}

// TestGoldenClusterRun pins the replicated tier — a one-shard fabric of
// three replicas under the replicated kill/drain/partition schedule — to
// byte-identical reports across same-seed runs.
func TestGoldenClusterRun(t *testing.T) {
	run := func() []byte {
		mk := registry.Factories(7)["kvstore"]
		prof := registry.ClusterProfile("kvstore", 7)
		cfg := shard.Config{
			System:   "kvstore",
			Shards:   1,
			Replicas: 3,
			Seed:     7,
			Recovery: recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond},
			Profile:  prof,
		}
		rep, err := shard.Run(cfg, mk, shard.ReplicatedSchedule(prof, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kills == 0 || rep.DrainRefusals == 0 || rep.NetPartitionDrops == 0 || rep.Unrecovered != 0 {
			t.Fatalf("replicated schedule not exercised: %s", rep)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("cluster reports diverged across same-seed runs:\n%s\n%s", a, b)
	}
}

// TestGoldenMicrorebootCampaign pins the recovery-granularity campaign (what
// `phxinject -campaign microreboot -json` emits) to byte-identical JSON
// across same-seed runs, and requires the granularity ordering the campaign
// enforces to actually have been measured on at least three applications.
func TestGoldenMicrorebootCampaign(t *testing.T) {
	run := func() []recovery.MicrorebootOutcome {
		outs, err := recovery.CheckMicroreboot(registry.MicrorebootSpecs(7), recovery.MicrorebootConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	first := run()
	a, b := mustJSON(t, first), mustJSON(t, run())
	if !bytes.Equal(a, b) {
		t.Fatalf("microreboot outcomes diverged across same-seed runs:\n%s\n%s", a, b)
	}
	fullLadder := 0
	for _, o := range first {
		rungs := map[string]bool{}
		for _, w := range o.Windows {
			rungs[w.Granularity] = true
		}
		if rungs["rewind"] && rungs["microreboot"] && rungs["phoenix"] {
			fullLadder++
		}
	}
	if fullLadder < 3 {
		t.Fatalf("only %d app(s) measured the full rewind/microreboot/phoenix ladder, want >= 3", fullLadder)
	}
}

func TestGoldenExploreCampaign(t *testing.T) {
	run := func() []byte {
		sum, err := CheckExplore(Options{Seeds: 6, Start: 1})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, sum)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("explore summaries diverged across same-option runs:\n%s\n%s", a, b)
	}
}
