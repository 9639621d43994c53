package shard_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"phoenix/internal/apps/registry"
	"phoenix/internal/shard"
)

// TestGoldenMultiShardCampaign pins the multi-shard campaign to a checked-in
// golden: registry.ShardSystems(1) under the default 4×2+2 fabric must
// marshal to exactly the bytes `phxinject -campaign shard -json` printed
// before the fabric learned drains and partitions. Any byte that moves here
// means the multi-shard path changed.
func TestGoldenMultiShardCampaign(t *testing.T) {
	want, err := os.ReadFile("testdata/checkshard_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.CheckShard(registry.ShardSystems(1), shard.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("multi-shard campaign JSON moved (%d bytes, golden %d)", len(got), len(want))
	}
}
