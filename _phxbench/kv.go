package main

import (
	"fmt"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/core"
	"phoenix/internal/kernel"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

const valueSize = 128

// crashVA is an unmapped address outside the kvstore layout; reading it
// inside Proc().Run is the kill (the shard fabric uses the same vector).
const crashVA = mem.VAddr(0x2_0000_0000)

// kvEnv is one booted and loaded kvstore under a PHOENIX harness, plus the
// benchmark's model of every acknowledged write.
type kvEnv struct {
	m   *kernel.Machine
	kv  *kvstore.KV
	h   *recovery.Harness
	gen *workload.YCSB
	// model maps each key to the version of its last acknowledged value:
	// the store must hold workload.Value(key, version, valueSize).
	model map[string]uint64
}

// setupKV boots a kvstore (ModePhoenix, unsafe regions on, Cleanup on) and
// loads keys records. The returned duration covers boot plus load only.
func setupKV(seed int64, keys int, tr *tracer) (*kvEnv, time.Duration, error) {
	start := time.Now()
	m := kernel.NewMachine(seed)
	tr.setSim(m.Clock.Now)
	tr.begin("kvstore.new", 0)
	kv := kvstore.New(kvstore.Config{Cleanup: true}, nil)
	tr.end()
	gen := workload.NewYCSB(workload.YCSBConfig{
		Seed: seed, Records: uint64(keys), ReadFrac: 0.9, InsertFrac: 0.05,
		ValueSize: valueSize, ZipfianKeys: true,
	})
	// The harness's own generator only feeds SnapshotReadBatch. Pure reads
	// of loaded keys keep every batch read a hit and leave the client
	// stream's insert cursor alone.
	readGen := workload.NewYCSB(workload.YCSBConfig{
		Seed: seed + 7919, Records: uint64(keys), ReadFrac: 1,
		ValueSize: valueSize, ZipfianKeys: true,
	})
	h := recovery.NewHarness(m, recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true}, kv, readGen, nil)
	tr.begin("recovery.boot", 0)
	err := h.Boot()
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	loadKeys := gen.LoadKeys()
	tr.begin("kvstore.load", 0)
	kv.Load(loadKeys, valueSize)
	tr.end()
	took := time.Since(start)
	model := make(map[string]uint64, keys+keys/8)
	for _, k := range loadKeys {
		model[k] = 1
	}
	return &kvEnv{m: m, kv: kv, h: h, gen: gen, model: model}, took, nil
}

// serve draws the next client request and serves it through the harness.
func (env *kvEnv) serve(e *epoch, tr *tracer) (effective bool, err error) {
	tr.begin("workload.next", 0)
	req := env.gen.Next()
	tr.end()
	tr.begin("recovery.serve_request", req.Seq)
	ok, eff, err := env.h.ServeRequest(req)
	tr.end()
	if err != nil {
		return false, err
	}
	e.ops++
	e.attempted++
	e.answered++
	if eff {
		e.effective++
	}
	switch {
	case !ok:
		e.failed++
	case req.Op == workload.OpInsert:
		env.model[req.Key] = 1
	case req.Op == workload.OpUpdate:
		env.model[req.Key] = req.Seq
	}
	return eff, nil
}

// checkDump compares the store's full dump with the acknowledged-write
// model.
func (env *kvEnv) checkDump(e *epoch, tr *tracer) {
	tr.begin("kvstore.dump", 0)
	dump := env.kv.Dump()
	tr.end()
	e.check(len(dump) == len(env.model), "dump holds %d keys, model %d", len(dump), len(env.model))
	bad := 0
	for k, ver := range env.model {
		if dump[k] != string(workload.Value(k, ver, valueSize)) {
			bad++
		}
	}
	e.check(bad == 0, "%d keys differ from the acknowledged-write model", bad)
}

// layerState reads the end-of-epoch layer accessors and runs the mem probes
// on the final address space.
func (env *kvEnv) layerState(e *epoch, tr *tracer, seed int64) {
	e.layer["heap.live_chunks"] = float64(env.h.Runtime().MainHeap().Stats().LiveChunks)
	e.layer["kvstore.checkpoints"] = float64(env.h.Stat.CheckpointsTaken)
	e.layer["recovery.fallbacks"] = float64(fallbacks(env.h.Stat))
	probeMem(e, tr, env.h.Proc().AS, seed)
}

// fallbacks counts every recovery that did not end in a PHOENIX restart.
func fallbacks(s recovery.Stats) int {
	return s.UnsafeFallbacks + s.GraceFallbacks + s.CrossFallbacks +
		s.RecoveryFaultFallbacks + s.IntegrityFallbacks + s.OtherRestarts + s.BootFailures
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runKVServe is one kv-serve epoch: a closed-loop client over a 50k-key
// store, one MVCC snapshot read batch every serveBlock requests. The gated
// window is one batch (commit plus reads).
func runKVServe(seed int64, sz sizes, tr *tracer) (*epoch, error) {
	env, took, err := setupKV(seed, sz.serveKeys, tr)
	if err != nil {
		return nil, err
	}
	e := &epoch{setup: took, tailQ: 0.99, layer: newLayer()}
	h, clk := env.h, env.m.Clock
	if tr != nil {
		e.layer["mem.dirty_pages_after_boot"] = float64(h.Proc().AS.DirtyPages())
	}
	var winSim []float64
	var copied int
	simStart, start := clk.Now(), time.Now()
	for b := 0; b < sz.serveBlocks; b++ {
		for i := 0; i < sz.serveBlock; i++ {
			if _, err := env.serve(e, tr); err != nil {
				return nil, err
			}
		}
		t0, s0 := time.Now(), clk.Now()
		eff, stale, changed, err := snapshotBatch(h, tr, sz.serveBatch)
		dHost, dSim := time.Since(t0), clk.Now()-s0
		if err != nil {
			return nil, err
		}
		e.winHost = append(e.winHost, us(dHost))
		winSim = append(winSim, us(dSim))
		copied += changed
		e.attempted += int64(sz.serveBatch)
		e.failed += int64(sz.serveBatch - eff)
		e.check(stale == 0, "snapshot batch %d served a stale version", b)
	}
	e.host, e.sim = time.Since(start), clk.Now()-simStart
	e.simMean, e.simTail = mean(winSim), quantile(winSim, e.tailQ)
	env.checkDump(e, tr)
	if tr != nil {
		e.layer["mem.snapshot_pages_copied"] = ratio(float64(copied), float64(sz.serveBlocks))
		env.layerState(e, tr, seed)
	}
	e.sig = fmt.Sprint(e.ops, e.sim, e.simMean, e.simTail, e.effective, e.attempted, e.failed, len(env.model))
	return e, nil
}

// snapshotBatch runs one snapshot read batch. Untraced it is one
// Harness.SnapshotReadBatch call; traced, the same work runs as its two
// public halves (SnapshotCommit, then ServeSnapshotReads over the reads
// SnapshotReadBatch would draw) so each half gets its own span. changed is
// reported only by the traced path. Epoch signatures pin the two paths to
// the same simulated clock.
func snapshotBatch(h *recovery.Harness, tr *tracer, n int) (eff, stale, changed int, err error) {
	if tr == nil {
		eff, stale, err = h.SnapshotReadBatch(n, 2)
		return eff, stale, 0, err
	}
	tr.begin("recovery.snapshot_commit", 0)
	changed, err = h.SnapshotCommit()
	tr.end()
	if err != nil {
		return 0, 0, 0, err
	}
	reqs := make([]*workload.Request, n)
	for i := range reqs {
		tr.begin("workload.next", 0)
		reqs[i] = h.Gen.Next()
		tr.end()
	}
	tr.begin("recovery.snapshot_reads", 0)
	eff, stale, err = h.ServeSnapshotReads(reqs, 2)
	tr.end()
	return eff, stale, changed, err
}

// runKVCrash is one kv-crash-recover epoch: a closed-loop client over a
// 20k-key store, killed every crashBlock requests. The gated window runs
// from the kill to the first effective answer after recovery.
func runKVCrash(seed int64, sz sizes, tr *tracer) (*epoch, error) {
	env, took, err := setupKV(seed, sz.crashKeys, tr)
	if err != nil {
		return nil, err
	}
	e := &epoch{setup: took, tailQ: 0.95, layer: newLayer()}
	h, clk := env.h, env.m.Clock
	var grace, paused time.Duration
	var winSim []float64
	var moved, verified, reused, dirty, swept int
	simStart, start := clk.Now(), time.Now()
	for k := 0; k < sz.crashKills; k++ {
		for i := 0; i < sz.crashBlock; i++ {
			if _, err := env.serve(e, tr); err != nil {
				return nil, err
			}
		}
		// Step past the second-failure grace so every kill is a first
		// failure that PHOENIX may recover.
		clk.Advance(core.SecondFailureGrace + time.Millisecond)
		grace += core.SecondFailureGrace + time.Millisecond
		restarts := h.Stat.PhoenixRestarts

		t0, s0 := time.Now(), clk.Now()
		tr.begin("kernel.kill", 0)
		ci := h.Proc().Run(func() { h.Proc().AS.ReadU64(crashVA) })
		tr.end()
		if ci == nil {
			return nil, fmt.Errorf("kill %d did not crash the process", k)
		}
		tr.begin("recovery.handle_failure", 0)
		err := h.HandleFailureForREPL(ci)
		tr.end()
		if err != nil {
			return nil, err
		}
		recovered := time.Since(t0)

		pause := time.Now()
		e.check(h.Stat.PhoenixRestarts == restarts+1, "kill %d was not recovered by a PHOENIX restart", k)
		if tr != nil {
			if hand := h.Proc().Handoff(); hand != nil {
				moved += hand.MovedPages
				verified += hand.VerifiedChecksums
				reused += hand.ReusedChecksums
			}
			dirty += h.Proc().AS.DirtyPages()
			c, _ := h.Runtime().MainHeap().LastSweep()
			swept += c
		}
		paused += time.Since(pause)

		t1 := time.Now()
		tr.begin("recovery.first_answer", 0)
		answered := false
		for try := 0; try < 100 && !answered; try++ {
			if answered, err = env.serve(e, tr); err != nil {
				return nil, err
			}
		}
		tr.end()
		e.winHost = append(e.winHost, us(recovered+time.Since(t1)))
		winSim = append(winSim, us(clk.Now()-s0))

		pause = time.Now()
		e.check(answered, "no effective answer within 100 requests after kill %d", k)
		e.check(fallbacks(h.Stat) == 0 && h.M.Counters.ChecksumMismatches.Load() == 0,
			"kill %d: fallbacks=%d checksum mismatches=%d", k, fallbacks(h.Stat), h.M.Counters.ChecksumMismatches.Load())
		e.check(int(env.kv.Len()) == len(env.model), "kill %d: store holds %d keys, model %d", k, env.kv.Len(), len(env.model))
		if (k+1)%sz.crashDumpEvery == 0 {
			env.checkDump(e, tr)
		}
		paused += time.Since(pause)
	}
	e.host = time.Since(start) - paused
	e.sim = clk.Now() - simStart - grace
	e.simMean, e.simTail = mean(winSim), quantile(winSim, e.tailQ)
	env.checkDump(e, tr)
	if tr != nil {
		n := float64(sz.crashKills)
		e.layer["kernel.moved_pages"] = float64(moved) / n
		e.layer["kernel.checksums_hashed"] = float64(verified-reused) / n
		e.layer["kernel.checksum_reuse_ratio"] = ratio(float64(reused), float64(verified))
		e.layer["mem.dirty_pages_after_boot"] = float64(dirty) / n
		e.layer["heap.sweep_freed_chunks"] = float64(swept) / n
		env.layerState(e, tr, seed)
	}
	e.sig = fmt.Sprint(e.ops, e.sim, e.simMean, e.simTail, e.effective, e.attempted, e.failed, len(env.model))
	return e, nil
}
