package shard

import (
	"bytes"
	"fmt"

	"phoenix/internal/recovery"
)

// This file implements the availability-under-traffic campaign: for each
// registered application, replay the identical fault schedule against a
// PHOENIX fabric, a builtin-recovery fabric, and a vanilla fabric under the
// same open-loop client population, and check the serving contract — no
// key is ever served by a non-owner, PHOENIX's availability strictly
// exceeds vanilla's and its unavailability is strictly shorter, every
// PHOENIX kill recovers to effective service, and the whole run is a
// deterministic replay (same seed → byte-identical report). The schedule
// decides which further clauses apply: moves require completed migrations,
// no lost acknowledged write, and a preserve-riding cutover shorter than
// stop-and-copy; drains require refusals and no request started while
// draining; partitions require fabric drops and no escaped response.
//
// The multi-shard campaign runs DefaultSchedule on a 4×2+2 fabric; the
// replicated-tier ("cluster") campaign runs ReplicatedSchedule on one shard
// of three replicas with no spares (ReplicatedOptions).

// System pairs an application factory with its shard workload profile. The
// campaign's caller wires these from the app registry; the shard package
// cannot import the registry itself (the registry depends on this package
// for the profile type).
type System struct {
	Name    string
	Factory recovery.AppFactory
	Profile Profile
}

// Options parameterises CheckShard.
type Options struct {
	// Seed drives every run (default 1).
	Seed int64
	// Shards/Replicas/Spares shape the fabric. Zero Replicas means 2; zero
	// Shards means the default fabric of 4 shards with 2 spares.
	Shards   int
	Replicas int
	Spares   int
	// Schedule builds each system's fault script (default DefaultSchedule).
	Schedule func(p Profile, shards, replicas int) Schedule
}

// ReplicatedOptions shapes the replicated-tier campaign: one shard, three
// replicas, no spares, under ReplicatedSchedule.
func ReplicatedOptions(seed int64) Options {
	return Options{Seed: seed, Shards: 1, Replicas: 3, Schedule: ReplicatedSchedule}
}

// Result holds one system's three mode reports.
type Result struct {
	System  string `json:"system"`
	Phoenix Report `json:"phoenix"`
	Builtin Report `json:"builtin"`
	Vanilla Report `json:"vanilla"`
}

// CheckShard runs the campaign for the given systems and returns the first
// contract violation found.
func CheckShard(systems []System, o Options) ([]Result, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards <= 0 {
		o.Shards, o.Spares = 4, 2
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Schedule == nil {
		o.Schedule = DefaultSchedule
	}
	var results []Result
	for _, sys := range systems {
		res, err := checkSystem(sys, o)
		results = append(results, res)
		if err != nil {
			return results, fmt.Errorf("shard campaign: %s: %w", sys.Name, err)
		}
	}
	return results, nil
}

func checkSystem(sys System, o Options) (Result, error) {
	sys.Profile.fill()
	sched := o.Schedule(sys.Profile, o.Shards, o.Replicas)
	run := func(rcfg recovery.Config) (Report, error) {
		cfg := Config{
			System:   sys.Name,
			Shards:   o.Shards,
			Replicas: o.Replicas,
			Spares:   o.Spares,
			Seed:     o.Seed,
			Recovery: rcfg,
			Profile:  sys.Profile,
		}
		return Run(cfg, sys.Factory, sched)
	}

	res := Result{System: sys.Name}
	ci := sys.Profile.CheckpointInterval
	var err error
	if res.Phoenix, err = run(recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: ci}); err != nil {
		return res, err
	}
	// Determinism: the identical configuration must replay byte-for-byte.
	rerun, err := run(recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: ci})
	if err != nil {
		return res, err
	}
	j1, err := res.Phoenix.JSON()
	if err != nil {
		return res, err
	}
	j2, err := rerun.JSON()
	if err != nil {
		return res, err
	}
	if !bytes.Equal(j1, j2) {
		return res, fmt.Errorf("same-seed reruns diverged:\n%s\n%s", j1, j2)
	}
	if res.Builtin, err = run(recovery.Config{Mode: recovery.ModeBuiltin, CheckpointInterval: ci}); err != nil {
		return res, err
	}
	if res.Vanilla, err = run(recovery.Config{Mode: recovery.ModeVanilla}); err != nil {
		return res, err
	}

	p, b, v := res.Phoenix, res.Builtin, res.Vanilla
	moves := len(sched.Moves)+len(sched.RingChanges) > 0
	switch {
	case p.Requests == 0 || b.Requests == 0 || v.Requests == 0:
		return res, fmt.Errorf("a mode served no traffic (phoenix=%d builtin=%d vanilla=%d requests)",
			p.Requests, b.Requests, v.Requests)
	case p.Kills == 0:
		return res, fmt.Errorf("schedule killed nothing — the campaign exercised no recovery")
	case moves && p.MovesCompleted == 0:
		return res, fmt.Errorf("PHOENIX completed no shard moves — the campaign exercised no migration")
	case moves && v.MovesCompleted == 0:
		return res, fmt.Errorf("vanilla completed no shard moves — no stop-and-copy baseline to compare against")
	case p.AvailabilityPct <= v.AvailabilityPct:
		return res, fmt.Errorf("PHOENIX availability %.3f%% does not strictly exceed vanilla %.3f%%\n  phoenix: %s\n  vanilla: %s",
			p.AvailabilityPct, v.AvailabilityPct, p, v)
	case p.UnavailTotalUs >= v.UnavailTotalUs:
		return res, fmt.Errorf("PHOENIX unavailability %dµs did not shrink vs vanilla %dµs", p.UnavailTotalUs, v.UnavailTotalUs)
	case moves && p.MigrateCutoverUs >= v.MigrateCutoverUs:
		// The cutover (final ship + install + adopting boot) is the
		// drain-free part of the freeze: its cost is a pure function of what
		// still had to move, so preserve-riding delta rounds must beat
		// stop-and-copy here. (The full frozen window additionally includes
		// the traffic-dependent drain wait, which is mode-independent noise.)
		return res, fmt.Errorf("PHOENIX migration cutover %dµs not shorter than vanilla stop-and-copy %dµs — preserve-riding delta rounds bought nothing",
			p.MigrateCutoverUs, v.MigrateCutoverUs)
	case p.Unrecovered > 0:
		return res, fmt.Errorf("PHOENIX left %d kill(s) unrecovered to effective service", p.Unrecovered)
	}
	for _, rep := range []Report{p, b, v} {
		if rep.NonOwnerServes != 0 {
			return res, fmt.Errorf("%s: %d request(s) served by a non-owner across ownership flips", rep.Mode, rep.NonOwnerServes)
		}
		if rep.LostAcked != 0 {
			return res, fmt.Errorf("%s: %d acknowledged write(s) lost across migration (keys %v)", rep.Mode, rep.LostAcked, rep.LostKeys)
		}
		if moves && rep.LedgerChecked == 0 {
			return res, fmt.Errorf("%s: lost-write oracle audited nothing — no acked writes landed on migrated shards", rep.Mode)
		}
		if len(sched.Drains) > 0 && rep.DrainRefusals == 0 {
			return res, fmt.Errorf("%s: drain window was never exercised (no refusals)", rep.Mode)
		}
		if len(sched.Partitions) > 0 {
			if rep.PartitionResponses != 0 {
				return res, fmt.Errorf("%s: partitioned node delivered %d response(s)", rep.Mode, rep.PartitionResponses)
			}
			if rep.NetPartitionDrops == 0 {
				return res, fmt.Errorf("%s: partition window was never exercised (no fabric drops)", rep.Mode)
			}
		}
	}
	return res, nil
}

// FmtComparison renders one result as the availability table the campaigns
// and the figshard and figcluster experiments print.
func FmtComparison(res Result) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s (shards=%d×%d, clients=%d, kills=%d, moves=%d)\n",
		res.System, res.Phoenix.Shards, res.Phoenix.Replicas, res.Phoenix.Population,
		res.Phoenix.Kills, res.Phoenix.Moves+res.Phoenix.RingChanges)
	fmt.Fprintf(&buf, "  %-8s %10s %8s %8s %8s %12s %10s %6s\n",
		"mode", "avail", "p50", "p99", "p999", "unavail", "cutover", "fail")
	for _, rep := range []Report{res.Phoenix, res.Builtin, res.Vanilla} {
		fmt.Fprintf(&buf, "  %-8s %9.3f%% %7dµs %7dµs %7dµs %11dµs %9dµs %6d\n",
			rep.Mode, rep.AvailabilityPct, rep.P50Us, rep.P99Us, rep.P999Us,
			rep.UnavailTotalUs, rep.MigrateCutoverUs, rep.Failed)
	}
	return buf.String()
}
