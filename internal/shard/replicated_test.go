package shard_test

import (
	"testing"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// replicatedRun runs the kvstore replicated tier — one shard, three
// replicas, no spares — under PHOENIX with the given schedule.
func replicatedRun(t *testing.T, sched func(runFor time.Duration) shard.Schedule) shard.Report {
	t.Helper()
	prof := registry.ClusterProfile("kvstore", 5)
	prof.RunFor = 200 * time.Millisecond
	rep, err := shard.Run(shard.Config{
		System:   "kvstore",
		Shards:   1,
		Replicas: 3,
		Seed:     5,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond},
		Profile:  prof,
	}, registry.Factories(5)["kvstore"], sched(prof.RunFor))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDrainedReplicaStartsNothing drains replica 2 before traffic opens and
// keeps it drained past the end of the run: it must start no request,
// refuse every dispatch the router sends it, and leave the other two
// replicas serving.
func TestDrainedReplicaStartsNothing(t *testing.T) {
	rep := replicatedRun(t, func(d time.Duration) shard.Schedule {
		return shard.Schedule{Drains: []shard.Window{{From: time.Microsecond, To: 2 * d, Replica: 2}}}
	})
	nd := rep.Nodes[2]
	if nd.Role != "draining" || nd.Accepted != 0 {
		t.Fatalf("drained replica served: %+v", nd)
	}
	if nd.Refused == 0 || nd.DrainRefusals != nd.Refused || rep.DrainRefusals != nd.DrainRefusals {
		t.Fatalf("drained replica refusals: node %d/%d, report %d", nd.DrainRefusals, nd.Refused, rep.DrainRefusals)
	}
	if rep.Nodes[0].Accepted == 0 || rep.Nodes[1].Accepted == 0 || rep.Served == 0 {
		t.Fatalf("the undrained replicas stopped serving: %s", rep)
	}
}

// TestPartitionedReplicaDeliversNothing cuts replica 2 off mid-traffic: the
// fabric drops what crosses the cut, no response from the replica reaches
// the router while the partition is open, the replica served before it,
// and the other two — still connected to the router and the frontend —
// take over its traffic.
func TestPartitionedReplicaDeliversNothing(t *testing.T) {
	base := replicatedRun(t, func(time.Duration) shard.Schedule { return shard.Schedule{} })
	rep := replicatedRun(t, func(d time.Duration) shard.Schedule {
		return shard.Schedule{Partitions: []shard.Window{{From: d / 4, To: d * 3 / 4, Replica: 2}}}
	})
	if got, was := rep.Nodes[0].Accepted+rep.Nodes[1].Accepted, base.Nodes[0].Accepted+base.Nodes[1].Accepted; got <= was {
		t.Fatalf("replicas 0 and 1 accepted %d requests with replica 2 cut off, %d without: the cut isolated more than replica 2", got, was)
	}
	if rep.NetPartitionDrops == 0 {
		t.Fatal("the partition never cut anything")
	}
	if rep.PartitionResponses != 0 {
		t.Fatalf("%d responses escaped the partitioned replica", rep.PartitionResponses)
	}
	if rep.Nodes[2].Accepted == 0 {
		t.Fatalf("replica 2 never served, so the partition proved nothing: %+v", rep.Nodes[2])
	}
}
