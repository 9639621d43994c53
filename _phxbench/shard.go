package main

import (
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// Fabric shape of the shard-openloop workload.
const (
	shardCount    = 4
	shardReplicas = 2
	shardSpares   = 2
	shardCkpt     = 2 * time.Millisecond
)

// stepGen wraps the profile's request template. The frontend clones it once
// when traffic starts, which marks the end of set-up, and the clone draws one
// request per arrival; the host time between two draws is the host cost of
// simulating one arrival and everything the fabric did since the previous
// one.
type stepGen struct {
	inner workload.Generator
	log   *stepLog
}

// stepLog is shared by the template and its clone.
type stepLog struct {
	tr           *tracer
	trafficStart time.Time
	last         time.Time
	steps        []float64
}

func (g *stepGen) Next() *workload.Request {
	l := g.log
	if now := time.Now(); !l.last.IsZero() {
		l.steps = append(l.steps, us(now.Sub(l.last)))
	}
	l.tr.begin("workload.next", 0)
	req := g.inner.Next()
	l.tr.end()
	l.last = time.Now()
	return req
}

func (g *stepGen) Clone(seed int64) workload.Generator {
	g.log.trafficStart = time.Now()
	return &stepGen{inner: g.inner.Clone(seed), log: g.log}
}

// runShard is one shard-openloop epoch: one sharded fabric of kvstore
// replicas under open-loop Poisson arrivals and the default
// kill/move/ring-change schedule. The gated window is one arrival step on
// the host clock; on the simulated clock it is a replica kill, whose mean
// is the replica's recovery time and whose tail is the request latency p999
// (from each request's scheduled arrival), which the kills set.
func runShard(seed int64, sz sizes, tr *tracer) (*epoch, error) {
	var apps []*kvstore.KV
	mk := registry.Factories(seed)["kvstore"]
	factory := func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
		tr.begin("kvstore.new", 0)
		app, gen := mk(inj)
		tr.end()
		if kv, ok := app.(*kvstore.KV); ok {
			apps = append(apps, kv)
		}
		return app, gen
	}
	prof := registry.ShardProfile("kvstore", seed)
	prof.RunFor = sz.shardRunFor
	// The client retries a refused request for longer than a PHOENIX
	// replica recovery (~31 ms simulated), so a write that lands on a
	// recovering replica group waits instead of failing; the profile's
	// default three 1 ms retries give up after a few milliseconds.
	prof.MaxRetries = 12
	prof.RetryDelay = 5 * time.Millisecond
	log := &stepLog{tr: tr}
	prof.Proto = &stepGen{inner: prof.Proto, log: log}
	cfg := shard.Config{
		System: "kvstore", Shards: shardCount, Replicas: shardReplicas, Spares: shardSpares,
		Seed:     seed,
		Recovery: recovery.Config{Mode: recovery.ModePhoenix, CheckpointInterval: shardCkpt},
		Profile:  prof,
	}
	tr.setSim(func() time.Duration { return 0 })
	start := time.Now()
	tr.begin("shard.run", 0)
	rep, err := shard.Run(cfg, factory, shard.DefaultSchedule(prof, shardCount, shardReplicas))
	end := time.Now()
	tr.endSim(prof.RunFor)
	if err != nil {
		return nil, err
	}
	e := &epoch{
		setup:     log.trafficStart.Sub(start),
		ops:       rep.Served + rep.Retried + rep.Stale,
		host:      end.Sub(log.trafficStart),
		sim:       prof.RunFor,
		winHost:   log.steps,
		tailQ:     0.999,
		simMean:   nodeRecoveryUs(rep),
		simTail:   float64(rep.P999Us),
		effective: rep.Served + rep.Retried,
		answered:  rep.Requests,
		attempted: int64(rep.Requests),
		failed:    int64(rep.Failed),
		layer:     newLayer(),
	}
	e.check(rep.NonOwnerServes == 0, "%d non-owner serves", rep.NonOwnerServes)
	e.check(rep.LostAcked == 0, "%d acknowledged writes lost", rep.LostAcked)
	e.check(rep.Unrecovered == 0, "%d kill windows never closed", rep.Unrecovered)
	e.check(rep.SnapshotStale == 0, "%d stale snapshot reads", rep.SnapshotStale)
	js, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	e.sig = string(js)
	if tr != nil {
		shardLayer(e, tr, rep, apps, seed)
	}
	return e, nil
}

// nodeRecoveryUs is the mean simulated time a killed replica took to recover
// (kill to serving again), over every kill of the run.
func nodeRecoveryUs(rep shard.Report) float64 {
	var recUs int64
	var kills int
	for _, nd := range rep.Nodes {
		recUs += nd.RecoveryUs
		kills += nd.Kills
	}
	return ratio(float64(recUs), float64(kills))
}

// shardLayer reads the per-layer values of one fabric run from its report
// and from the replicas' final address spaces.
func shardLayer(e *epoch, tr *tracer, rep shard.Report, apps []*kvstore.KV, seed int64) {
	req := float64(rep.Requests)
	var rounds, shipped, delta int
	for _, mv := range rep.MoveReports {
		rounds += len(mv.Rounds)
		shipped += mv.ShippedPages
		delta += mv.FinalDelta
	}
	var ckpts, kills, fallbacks int
	var verified, reused int64
	for _, nd := range rep.Nodes {
		ckpts += nd.Checkpoints
		kills += nd.Kills
		fallbacks += nd.OtherRestarts
		verified += nd.Counters["checksums_verified"]
		reused += nd.Counters["checksums_reused"]
	}
	e.layer["kernel.migrate_rounds"] = float64(rounds)
	e.layer["kernel.migrate_shipped_pages"] = float64(shipped)
	e.layer["kernel.migrate_final_delta"] = float64(delta)
	e.layer["kernel.migrate_cutover_sim_us"] = float64(rep.MigrateCutoverUs)
	e.layer["kernel.checksums_hashed"] = ratio(float64(verified-reused), float64(kills))
	e.layer["kernel.checksum_reuse_ratio"] = ratio(float64(reused), float64(verified))
	e.layer["kvstore.checkpoints"] = float64(ckpts)
	e.layer["recovery.fallbacks"] = float64(fallbacks)
	e.layer["netsim.delivered_per_req"] = ratio(float64(rep.NetDelivered), req)
	e.layer["netsim.dropped"] = float64(rep.NetDropped)
	e.layer["shard.retried_frac"] = ratio(float64(rep.Retried), req)
	e.layer["shard.node_recovery_sim_us"] = nodeRecoveryUs(rep)
	e.layer["shard.unavail_sim_ms"] = float64(rep.UnavailTotalUs) / 1e3

	// Heap and resident-page totals over every live replica; the mem probes
	// run on the largest final address space.
	var live, resident, most int
	var biggest *mem.AddressSpace
	for _, kv := range apps {
		rt := kv.Runtime()
		if rt == nil || rt.Proc().Dead() {
			continue // a spare never used, or a migration's retired source
		}
		live += int(rt.MainHeap().Stats().LiveChunks)
		as := rt.Proc().AS
		n := as.ResidentPages()
		resident += n
		if n > most {
			most, biggest = n, as
		}
	}
	e.layer["heap.live_chunks"] = float64(live)
	if biggest != nil {
		probeMem(e, tr, biggest, seed)
	}
	e.layer["mem.resident_pages"] = float64(resident)
}
