// Command phxinject runs fault-injection campaigns. The default campaign is
// the IR-level one against the instrumented mini-IR model — the distilled
// version of §4.4's experiment: inject one instruction-level fault, run the
// workload, crash at random points, and check the state-stack recovery
// condition against the ground truth consistency of the preserved
// dictionary. -campaign selects the system-level campaigns instead:
// "atomicity" replays recovery-path faults (including Byzantine bit flips in
// the preserved frames) against every application and requires no torn
// survivor; "escalation" drives repeated preserved-state corruption through
// the crash-loop breaker and requires the full detect → escalate →
// de-escalate cycle; "shard" and "cluster" drive open-loop traffic through
// the serving fabric over a simulated network and require PHOENIX to beat
// a vanilla restart on availability and unavailability under identical
// faults — "shard" on four two-replica shards while replicas are killed and
// shards are live-migrated mid-traffic (also requiring a shorter migration
// cutover than stop-and-copy, zero lost acked writes and zero non-owner
// serves), "cluster" on the replicated tier, one shard of three replicas,
// while replicas are killed, drained, and partitioned; "explore" sweeps
// randomized fault schedules (one per seed) against per-app invariant
// oracles, shrinking every violation to a minimal replayable artifact; "vet"
// differentially validates the phxvet static verifier — every application
// model must verify clean AND stay violation-free under randomized dynamic
// schedules, and every seeded dangling-store mutant must be flagged
// statically at the planted position and manifest dynamically; "microreboot"
// measures the recovery-granularity windows — the simulated unavailability of
// the same mid-request fault recovered by request rewind, component
// microreboot, PHOENIX preserve_exec, builtin restart, and vanilla restart —
// and requires each finer granularity to strictly beat the coarser ones;
// "lint" runs the phoenixlint static contract suite (snapshot-purity,
// dirty-bit soundness, cost-charging, determinism) over the module and fails
// on any finding not covered by the checked-in baseline of accepted
// exceptions.
//
// Usage:
//
//	phxinject -runs 200                  # IR campaign on the bundled kvmodel
//	phxinject -runs 200 -seed 7 -v
//	phxinject -campaign atomicity        # recovery-path faults, all apps
//	phxinject -campaign escalation       # Byzantine corruption, all apps
//	phxinject -campaign escalation -app kvstore -crashes 9
//	phxinject -campaign cluster          # availability under traffic, all apps
//	phxinject -campaign cluster -app kvstore -json
//	phxinject -campaign shard            # sharded fabric: kills + live migration
//	phxinject -campaign shard -app kvstore -json
//	phxinject -campaign explore -seeds 200        # randomized schedule search
//	phxinject -campaign explore -seeds 50 -app kvstore -json
//	phxinject -campaign vet -seeds 200            # static/dynamic differential
//	phxinject -campaign vet -seeds 50 -app kvstore -json
//	phxinject -campaign microreboot               # granularity windows, all apps
//	phxinject -campaign microreboot -app boost -json
//	phxinject -campaign lint                      # static contract suite
//	phxinject -campaign lint -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"phoenix/internal/analysis"
	"phoenix/internal/apps/registry"
	"phoenix/internal/explore"
	"phoenix/internal/ir"
	"phoenix/internal/lint"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

func main() {
	var (
		runs     = flag.Int("runs", 200, "number of injection runs (ir campaign)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		v        = flag.Bool("v", false, "print per-run outcomes")
		campaign = flag.String("campaign", "ir", "campaign to run: ir, atomicity, escalation, cluster, shard, explore, vet, microreboot, concurrency, lint")
		app      = flag.String("app", "", "restrict system-level campaigns to one application (default: all)")
		crashes  = flag.Int("crashes", 0, "escalation campaign: corruption-armed crash cycles (0 = default)")
		jsonOut  = flag.Bool("json", false, "cluster/explore/vet campaigns: emit the full report as deterministic JSON")
		seeds    = flag.Int("seeds", 200, "explore/vet campaigns: number of consecutive seeds to sweep")
	)
	flag.Parse()

	switch *campaign {
	case "ir":
		// Falls through to the IR campaign below.
	case "atomicity", "escalation":
		if err := runSystemCampaign(*campaign, *app, *seed, *crashes); err != nil {
			fatalf("%v", err)
		}
		return
	case "cluster":
		if err := runClusterCampaign(*app, *seed, *jsonOut); err != nil {
			fatalf("%v", err)
		}
		return
	case "shard":
		if err := runShardCampaign(*app, *seed, *jsonOut); err != nil {
			fatalf("%v", err)
		}
		return
	case "explore":
		if err := runExploreCampaign(*app, *seed, *seeds, *jsonOut, *v); err != nil {
			fatalf("%v", err)
		}
		return
	case "vet":
		if err := runVetCampaign(*app, *seed, *seeds, *jsonOut, *v); err != nil {
			fatalf("%v", err)
		}
		return
	case "microreboot":
		if err := runMicrorebootCampaign(*app, *seed, *jsonOut); err != nil {
			fatalf("%v", err)
		}
		return
	case "lint":
		if err := runLintCampaign(*jsonOut); err != nil {
			fatalf("%v", err)
		}
		return
	case "concurrency":
		if err := runConcurrencyCampaign(*app, *seed, *jsonOut); err != nil {
			fatalf("%v", err)
		}
		return
	default:
		fatalf("unknown campaign %q (want ir, atomicity, escalation, cluster, shard, explore, vet, microreboot, concurrency, or lint)", *campaign)
	}

	mod := ir.MustParse(analysis.KVModel)
	a := analysis.New(mod)
	if err := a.Run("handler", nil); err != nil {
		fatalf("analysis: %v", err)
	}
	instrumented, _, err := a.Instrument()
	if err != nil {
		fatalf("instrument: %v", err)
	}
	sites := ir.EnumerateFaultSites(instrumented, nil)
	rng := rand.New(rand.NewSource(*seed))

	var (
		completed, crashed     int
		safeVerdict, unsafeVer int
		inconsistent, falseNeg int
		silentCarried          int
	)
	for i := 0; i < *runs; i++ {
		site := sites[rng.Intn(len(sites))]
		fm, err := ir.Inject(instrumented, site)
		if err != nil {
			continue
		}
		in := ir.NewInterp(fm)
		in.MaxStep = 20000
		seedDict(in)
		// Random crash point somewhere in the faulted workload.
		in.CrashAtStep = 50 + rng.Intn(400)

		var runErr error
		preCrashConsistent := true
		for k := int64(1); k <= 12 && runErr == nil; k++ {
			before := dictConsistent(in)
			_, runErr = in.Call("handler", k%5, k*3)
			if runErr != nil {
				preCrashConsistent = before
			}
		}
		consistent := dictConsistent(in)
		switch e := runErr.(type) {
		case nil:
			completed++
			if !consistent && *v {
				fmt.Printf("run %3d: %-22s silent corruption\n", i, site.Kind)
			}
		case *ir.ErrCrash:
			crashed++
			safe := ir.Safe(e.Stack)
			if safe {
				safeVerdict++
			} else {
				unsafeVer++
			}
			if !consistent {
				inconsistent++
				switch {
				case safe && preCrashConsistent:
					// The crash itself interrupted an update yet the stack
					// said safe: a genuine unsafe-region miss.
					falseNeg++
				case safe:
					// The corruption was committed by an earlier completed
					// transaction: invisible to unsafe regions by design
					// (§3.5 — "if the failure is silent, PHOENIX shares the
					// same fate as the original recovery"); cross-check
					// validation is the mechanism that catches these.
					silentCarried++
				}
			}
			if *v {
				fmt.Printf("run %3d: %-22s crash in %-8s stack=%v safe=%v consistent=%v\n",
					i, site.Kind, e.Fn, e.Stack, safe, consistent)
			}
		default:
			// Fuel exhaustion et al.: an injected hang.
			crashed++
			unsafeVer++
		}
	}

	fmt.Printf("runs:                        %d\n", *runs)
	fmt.Printf("completed without crash:     %d\n", completed)
	fmt.Printf("crashed:                     %d\n", crashed)
	fmt.Printf("  verdict safe:              %d\n", safeVerdict)
	fmt.Printf("  verdict unsafe:            %d\n", unsafeVer)
	fmt.Printf("  state inconsistent:        %d\n", inconsistent)
	fmt.Printf("  silent pre-crash corruption: %d (unsafe regions cannot see these; cross-check does)\n", silentCarried)
	fmt.Printf("  FALSE NEGATIVES:           %d (crash-interrupted update judged safe)\n", falseNeg)
	if falseNeg > 0 {
		os.Exit(1)
	}
}

// runSystemCampaign runs the recovery-layer campaigns over the application
// registry and reports per-app outcomes; any contract violation fails the
// whole campaign.
func runSystemCampaign(kind, only string, seed int64, crashes int) error {
	factories := registry.Factories(seed)
	names := registry.Names()
	if only != "" {
		if _, ok := factories[only]; !ok {
			return fmt.Errorf("unknown app %q (have %v)", only, names)
		}
		names = []string{only}
	}
	failed := 0
	for _, name := range names {
		mk := factories[name]
		switch kind {
		case "atomicity":
			outcomes, err := recovery.CheckAtomicity(mk, recovery.AtomicityConfig{Seed: seed, Warm: 60, Settle: 20})
			if err != nil {
				failed++
				fmt.Printf("%-18s FAIL: %v\n", name, err)
				continue
			}
			fired := 0
			for _, o := range outcomes {
				if o.Fired {
					fired++
				}
			}
			fmt.Printf("%-18s ok: %d/%d probes fired, no torn survivor\n", name, fired, len(outcomes))
		case "escalation":
			out, err := recovery.CheckEscalation(mk, recovery.EscalationConfig{Seed: seed, Crashes: crashes})
			if err != nil {
				failed++
				fmt.Printf("%-18s FAIL: %v\n", name, err)
				continue
			}
			fmt.Printf("%-18s ok: %s\n", name, out)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%s campaign: %d application(s) failed", kind, failed)
	}
	return nil
}

// runClusterCampaign runs the replicated-tier availability campaign: each
// registry application on a one-shard fabric of three replicas, PHOENIX vs
// builtin vs vanilla under one kill/drain/partition schedule.
func runClusterCampaign(only string, seed int64, jsonOut bool) error {
	return runFabricCampaign(registry.ClusterSystems(seed), registry.Names(), only, shard.ReplicatedOptions(seed), jsonOut)
}

// runShardCampaign runs the sharded-fabric availability comparison: per
// shardable system, PHOENIX vs builtin vs vanilla under the same
// kill-and-rebalance schedule, with the live-migration and lost-write
// contracts enforced (and every mode double-run byte-identically).
func runShardCampaign(only string, seed int64, jsonOut bool) error {
	return runFabricCampaign(registry.ShardSystems(seed), registry.ShardNames(), only, shard.Options{Seed: seed}, jsonOut)
}

// runFabricCampaign runs CheckShard over systems (restricted to only when
// set). With jsonOut the three full reports per system are emitted as
// deterministic JSON (fixed field order, sorted map keys); the contract
// check still runs either way.
func runFabricCampaign(systems []shard.System, names []string, only string, o shard.Options, jsonOut bool) error {
	if only != "" {
		var keep []shard.System
		for _, s := range systems {
			if s.Name == only {
				keep = append(keep, s)
			}
		}
		if keep == nil {
			return fmt.Errorf("unknown app %q (have %v)", only, names)
		}
		systems = keep
	}
	res, cerr := shard.CheckShard(systems, o)
	if jsonOut {
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	} else {
		for _, r := range res {
			fmt.Print(shard.FmtComparison(r))
		}
	}
	return cerr
}

// runExploreCampaign sweeps randomized fault schedules: one schedule per
// seed, run twice (byte-identical outcomes required), every oracle violation
// shrunk to a minimal artifact that must replay. Violations are reported, not
// failed on — only determinism breaks, irreproducible artifacts, and
// infrastructure errors exit non-zero.
func runExploreCampaign(app string, start int64, seeds int, jsonOut, verbose bool) error {
	opts := explore.Options{Seeds: seeds, Start: start, App: app}
	if verbose {
		opts.Log = os.Stderr
	}
	sum, cerr := explore.CheckExplore(opts)
	if jsonOut {
		out, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(explore.FmtSummary(sum))
	}
	return cerr
}

// runMicrorebootCampaign measures the recovery-granularity windows: for each
// application, the simulated unavailability (crash → first answered request)
// at every ladder rung it supports — rewind, microreboot, PHOENIX, builtin,
// vanilla — and enforces the granularity ordering rewind < microreboot <
// process-level recovery.
func runMicrorebootCampaign(only string, seed int64, jsonOut bool) error {
	specs := registry.MicrorebootSpecs(seed)
	if only != "" {
		var keep []recovery.MicrorebootSpec
		for _, s := range specs {
			if s.Name == only {
				keep = append(keep, s)
			}
		}
		if keep == nil {
			return fmt.Errorf("unknown app %q (have %v)", only, registry.Names())
		}
		specs = keep
	}
	res, cerr := recovery.CheckMicroreboot(specs, recovery.MicrorebootConfig{Seed: seed})
	if jsonOut {
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(recovery.FmtMicroreboot(res))
	}
	return cerr
}

// runConcurrencyCampaign runs the concurrent-serving campaign: for each
// snapshot-serving application, batches of reads off committed MVCC versions
// at 1/4/16 readers with a mid-run PHOENIX kill, enforcing the reader
// speedup, the zero-stale oracle, and the modelled parallel-vs-serial
// preserve staging comparison.
func runConcurrencyCampaign(only string, seed int64, jsonOut bool) error {
	specs := registry.ConcurrencySpecs(seed)
	if only != "" {
		var keep []recovery.ConcurrencySpec
		for _, s := range specs {
			if s.Name == only {
				keep = append(keep, s)
			}
		}
		if keep == nil {
			return fmt.Errorf("unknown app %q (have %v)", only, registry.ConcurrencyNames())
		}
		specs = keep
	}
	res, cerr := recovery.CheckConcurrency(specs, recovery.ConcurrencyConfig{Seed: seed})
	if jsonOut {
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(recovery.FmtConcurrency(res))
	}
	return cerr
}

// runVetCampaign runs the static/dynamic differential: the phxvet verifier
// against the interpreter's restart audit on every application model, plus
// the seeded-mutant contract. Any disagreement exits non-zero.
func runVetCampaign(model string, start int64, seeds int, jsonOut, verbose bool) error {
	opts := explore.VetOptions{Seeds: seeds, Start: start, Model: model}
	if verbose {
		opts.Log = os.Stderr
	}
	sum, cerr := explore.CheckVet(opts)
	if jsonOut {
		out, err := json.Marshal(sum)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(explore.FmtVetSummary(sum))
	}
	return cerr
}

// seedDict initialises the interpreter's dictionary bucket.
func seedDict(in *ir.Interp) {
	bucket := in.Global("table") + 256
	in.Store(in.Global("table")+8, bucket)
	in.Store(in.Global("table")+16, 0)
	in.Store(bucket, 0)
}

// dictConsistent checks chain length against the stored count.
func dictConsistent(in *ir.Interp) bool {
	table := in.Global("table")
	bucket := in.Load(table + 8)
	count := in.Load(table + 16)
	var n int64
	for e := in.Load(bucket); e != 0; e = in.Load(e) {
		n++
		if n > count+16 {
			return false
		}
	}
	return n == count
}

// runLintCampaign runs the static contract suite (phoenixlint) over the
// enclosing module: every registered analyzer, baseline applied, failing when
// any finding survives the baseline. The JSON report is deterministic and
// double-run-compared in CI like every other campaign's.
func runLintCampaign(jsonOut bool) error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := lint.FindRoot(cwd)
	if err != nil {
		return err
	}
	rep, err := lint.Campaign(root)
	if err != nil {
		return err
	}
	if jsonOut {
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(out)
	} else {
		fmt.Print(lint.FmtReport(rep))
	}
	if !rep.Clean {
		return fmt.Errorf("lint campaign: %d finding(s) beyond baseline", len(rep.Findings))
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phxinject: "+format+"\n", args...)
	os.Exit(1)
}
