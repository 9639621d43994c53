package shard_test

import (
	"fmt"
	"testing"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// TestPerShardKillWindowSmallerThanWholeReplica is the sharding dividend:
// the same application, seed, and dataset, killed at the same instant under
// PHOENIX, must reopen faster when the victim owns one shard's arc than
// when it owns the whole replicated keyspace. The state-dependent parts of
// recovery — the preserve scan and checksum walk over the heap, the
// mark-and-sweep cleanup over live records — scale with what the node
// holds, and a 4-shard fabric gives each node a quarter of it. The dataset
// is sized (16 MiB of values) so that margin dwarfs the shared fixed costs
// (PhoenixBootCost, probe rediscovery) and scheduling jitter.
func TestPerShardKillWindowSmallerThanWholeReplica(t *testing.T) {
	const (
		records   = 4096
		valueSize = 4096
		seed      = 11
		shards    = 4
		replicas  = 2
	)
	killAt := 50 * time.Millisecond
	runFor := 250 * time.Millisecond

	mk := func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
		kv := kvstore.New(kvstore.Config{Cleanup: true}, inj)
		gen := workload.NewYCSB(workload.YCSBConfig{
			Seed: seed, Records: records, ReadFrac: 0.9, InsertFrac: 0.02,
			ValueSize: valueSize, ZipfianKeys: true,
		})
		return kv, gen
	}
	var warm []*workload.Request
	for i := uint64(0); i < records; i++ {
		key := fmt.Sprintf("user%010d", i)
		warm = append(warm, &workload.Request{
			Seq: i + 1, Op: workload.OpInsert, Key: key,
			Value: workload.Value(key, 1, valueSize),
		})
	}
	proto := workload.NewYCSB(workload.YCSBConfig{
		Seed: seed, Records: records, ReadFrac: 0.9, InsertFrac: 0.02,
		ValueSize: valueSize, ZipfianKeys: true,
	})
	rcfg := recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: 2 * time.Millisecond}

	// Whole-replica tier (one shard, no spares): every node warms (and on
	// a kill, preserves) all records.
	crep, err := shard.Run(shard.Config{
		System:   "kvstore",
		Shards:   1,
		Replicas: replicas,
		Seed:     seed,
		Recovery: rcfg,
		Profile:  shard.Profile{Proto: proto, Warm: warm, RunFor: runFor},
	}, mk, shard.Schedule{Kills: []shard.Kill{{At: killAt}}})
	if err != nil {
		t.Fatal(err)
	}

	// Sharded fabric: node 0 (shard 0, replica 0) warms only shard 0's arc.
	srep, err := shard.Run(shard.Config{
		System:   "kvstore",
		Shards:   shards,
		Replicas: replicas,
		Seed:     seed,
		Recovery: rcfg,
		Profile:  shard.Profile{Proto: proto, Warm: warm, RunFor: runFor},
	}, mk, shard.Schedule{Kills: []shard.Kill{{At: killAt, Shard: 0, Replica: 0}}})
	if err != nil {
		t.Fatal(err)
	}

	if len(crep.Windows) != 1 || !crep.Windows[0].Closed {
		t.Fatalf("whole-replica run: want one closed kill window, got %+v", crep.Windows)
	}
	if len(srep.Windows) != 1 || !srep.Windows[0].Closed {
		t.Fatalf("shard run: want one closed kill window, got %+v", srep.Windows)
	}
	cw, sw := crep.Windows[0], srep.Windows[0]
	t.Logf("whole-replica window %dµs, per-shard window %dµs", cw.DurUs, sw.DurUs)
	if sw.DurUs >= cw.DurUs {
		t.Fatalf("per-shard kill window %dµs not smaller than whole-replica window %dµs",
			sw.DurUs, cw.DurUs)
	}
}
