package shard_test

// Race-hammers for the fabric: each run is single-threaded by design (one
// simclock drives the router, the open-loop frontend, node recovery, and
// the migration state machines), so the concurrency hazard worth hunting is
// shared package state — a stray global in the ring, router, kernel
// migration, or app layers that two independent fabrics would stomp. These
// tests run full fabrics concurrently under -race — sharded with kills,
// moves, and ring changes; replicated with kills on every replica, a drain,
// and a partition — require same-seed runs to stay byte-identical even
// while racing each other, and check no goroutine outlives the runs.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

func hammerOnce(t *testing.T, seed int64) shard.Report {
	t.Helper()
	cfg, mk, _ := smokeConfig(seed, recovery.ModePhoenix)
	d := cfg.Profile.RunFor
	// Kill-and-rebalance heavy: every shard is either killed or moved.
	sched := shard.Schedule{
		Kills: []shard.Kill{
			{At: d / 4, Shard: 0, Replica: 0},
			{At: d / 3, Shard: 1, Replica: 1},
			{At: d / 2, Shard: 2, Replica: 0},
		},
		Moves:       []shard.Move{{At: d * 2 / 5, Shard: 3, Replica: 1}},
		RingChanges: []shard.RingChange{{At: d * 3 / 5, Shard: 1}},
	}
	rep, err := shard.Run(cfg, mk, sched)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return shard.Report{}
	}
	return rep
}

// replicatedHammerOnce runs the kvstore replicated tier (one shard, three
// replicas) with every replica killed once, then a drain and a partition.
func replicatedHammerOnce(t *testing.T, seed int64) shard.Report {
	t.Helper()
	prof := registry.ClusterProfile("kvstore", seed)
	cfg := shard.Config{
		System:   "kvstore",
		Shards:   1,
		Replicas: 3,
		Seed:     seed,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond},
		Profile:  prof,
	}
	d := prof.RunFor
	sched := shard.Schedule{
		Kills:      []shard.Kill{{At: d / 4}, {At: d / 3, Replica: 1}, {At: d / 2, Replica: 2}},
		Drains:     []shard.Window{{From: d * 3 / 5, To: d * 7 / 10, Replica: 0}},
		Partitions: []shard.Window{{From: d * 3 / 4, To: d * 17 / 20, Replica: 1}},
	}
	rep, err := shard.Run(cfg, registry.Factories(seed)["kvstore"], sched)
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return shard.Report{}
	}
	return rep
}

func TestShardRaceHammer(t *testing.T) {
	raceHammer(t, 3, hammerOnce, func(a shard.Report) string {
		switch {
		case a.MovesCompleted == 0:
			return "no move completed under the hammer schedule"
		case a.NonOwnerServes != 0 || a.LostAcked != 0:
			return "oracle violation under the hammer schedule"
		}
		return ""
	})
}

func TestClusterRaceHammer(t *testing.T) {
	raceHammer(t, 4, replicatedHammerOnce, func(a shard.Report) string {
		switch {
		case a.DrainRefusals == 0 || a.NetPartitionDrops == 0:
			return "drain or partition never bit"
		case a.PartitionResponses != 0 || a.Unrecovered != 0:
			return "oracle violation under the hammer schedule"
		}
		for _, nd := range a.Nodes {
			if nd.Accepted == 0 {
				return "a replica accepted nothing (the router never routed to it)"
			}
		}
		return ""
	})
}

// raceHammer runs seedCount seeds × 2 concurrent runs each — the duplicate
// pairs double as a determinism check under contention — then requires three
// kills and traffic in every run, an empty complaint from check, and no
// leaked goroutine.
func raceHammer(t *testing.T, seedCount int, once func(*testing.T, int64) shard.Report, check func(shard.Report) string) {
	before := runtime.NumGoroutine()
	const dup = 2
	reports := make([]shard.Report, seedCount*dup)
	var wg sync.WaitGroup
	for i := range reports {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = once(t, int64(i%seedCount)+1)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for s := 0; s < seedCount; s++ {
		a, b := reports[s], reports[s+seedCount]
		ja, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d: concurrent same-seed runs diverged:\n%s\n%s", s+1, ja, jb)
		}
		if a.Kills != 3 || a.Requests == 0 {
			t.Fatalf("seed %d: hammer run exercised nothing: %s", s+1, a)
		}
		if msg := check(a); msg != "" {
			t.Fatalf("seed %d: %s: %s", s+1, msg, a)
		}
	}

	// Goroutine-leak check: nothing the runs started may outlive them. A few
	// settle retries tolerate runtime-internal goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
