package experiments

import (
	"fmt"

	"phoenix/internal/apps/registry"
	"phoenix/internal/shard"
)

// RunFigCluster measures availability under traffic at the serving-tier
// level: for every registered application, a replicated tier — a one-shard
// fabric of three replicas — serves an open-loop client population over a
// simulated network while the identical kill/drain/partition schedule is
// replayed against PHOENIX, the application's builtin recovery, and a
// vanilla restart. The figure reports per-mode availability, latency
// percentiles, total unavailability (kill until the replica's first
// effective read), and failed requests — the cluster-scale version of
// Figure 10's per-process availability comparison.
//
// The run doubles as the campaign's contract check: CheckShard asserts the
// availability ordering, that every PHOENIX kill recovers to effective
// service, that draining or partitioned replicas serve nothing, and that a
// same-seed rerun is byte-identical.
func RunFigCluster(o Options) error {
	o.fill()
	systems := registry.ClusterSystems(o.Seed)
	if o.Quick {
		// One storage, one cache, one compute system keeps the quick profile
		// representative.
		var keep []shard.System
		for _, s := range systems {
			switch s.Name {
			case "kvstore", "webcache-varnish", "boost":
				keep = append(keep, s)
			}
		}
		systems = keep
	}
	res, err := shard.CheckShard(systems, shard.ReplicatedOptions(o.Seed))
	for _, r := range res {
		fmt.Fprintf(o.Out, "%s\n", shard.FmtComparison(r))
		for _, w := range r.Phoenix.Windows {
			state := "recovered"
			if !w.Closed {
				state = "unrecovered at run end"
			}
			fmt.Fprintf(o.Out, "  phoenix replica %d: unavailable %dµs (%s)\n", w.Replica, w.DurUs, state)
		}
	}
	return err
}
