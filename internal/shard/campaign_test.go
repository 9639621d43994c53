package shard_test

import (
	"bytes"
	"testing"

	"phoenix/internal/apps/registry"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// TestCheckShardAllApps runs the full sharded availability campaign — every
// shardable registered app, PHOENIX vs builtin vs vanilla under the same
// kill-and-rebalance schedule — and enforces its contract, including the
// internal same-seed byte-identity replay.
func TestCheckShardAllApps(t *testing.T) {
	results, err := shard.CheckShard(registry.ShardSystems(1), shard.Options{Seed: 1})
	for _, res := range results {
		t.Logf("\n%s", shard.FmtComparison(res))
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(registry.ShardNames()) {
		t.Fatalf("campaign covered %d systems, want %d", len(results), len(registry.ShardNames()))
	}
}

// TestCheckClusterAllApps runs the replicated-tier campaign: every registry
// application on a one-shard fabric of three replicas, PHOENIX vs builtin
// vs vanilla under the same kill/drain/partition schedule. The campaign
// asserts the contract (availability and unavailability ordering, recovered
// windows, refusing drains, sealed partitions, byte-identical replay).
func TestCheckClusterAllApps(t *testing.T) {
	results, err := shard.CheckShard(registry.ClusterSystems(1), shard.ReplicatedOptions(1))
	for _, res := range results {
		t.Logf("\n%s", shard.FmtComparison(res))
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(registry.Names()) {
		t.Fatalf("campaign covered %d systems, want %d", len(results), len(registry.Names()))
	}
}

// TestShardReportByteIdentity is the golden determinism check at the Run
// level: the identical configuration and schedule must produce byte-identical
// JSON, and a different seed must not.
func TestShardReportByteIdentity(t *testing.T) {
	run := func(seed int64) []byte {
		cfg, mk, sched := smokeConfig(seed, recovery.ModePhoenix)
		rep, err := shard.Run(cfg, mk, sched)
		if err != nil {
			t.Fatal(err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(3), run(3)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs diverged:\n%s\n%s", a, b)
	}
	if c := run(4); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports — the seed is not reaching the run")
	}
}
