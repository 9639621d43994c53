// Package registry enumerates every application in internal/apps as a
// recovery.AppFactory, sized for fault campaigns: small enough that a full
// probe matrix stays fast, large enough that every app preserves multiple
// ranges. Campaign tests and the phxinject CLI share it so "all apps" means
// the same thing everywhere.
package registry

import (
	"fmt"
	"sort"
	"time"

	"phoenix/internal/apps/boost"
	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/lsmdb"
	"phoenix/internal/apps/particle"
	"phoenix/internal/apps/webcache"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// StepGen drives the compute apps (boost, particle) one step per request.
type StepGen struct{ seq uint64 }

func (g *StepGen) Next() *workload.Request {
	g.seq++
	return &workload.Request{Seq: g.seq, Op: workload.OpRead, Key: "step"}
}

// Clone implements workload.Generator; the step stream is seed-independent.
func (g *StepGen) Clone(seed int64) workload.Generator { return &StepGen{} }

// Factories returns one campaign-sized factory per application, keyed by the
// system name used throughout the experiments.
func Factories(seed int64) map[string]recovery.AppFactory {
	return map[string]recovery.AppFactory{
		"kvstore": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			kv := kvstore.New(kvstore.Config{Cleanup: true}, inj)
			gen := workload.NewYCSB(workload.YCSBConfig{
				Seed: seed, Records: 200, ReadFrac: 0.8, InsertFrac: 0.2,
				ValueSize: 64, ZipfianKeys: true,
			})
			return kv, gen
		},
		"lsmdb": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			db := lsmdb.New(lsmdb.Config{MemtableThreshold: 1 << 20}, inj)
			return db, workload.NewFillSeq(64)
		},
		"webcache-varnish": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 100, MeanSize: 2 << 10})
			c := webcache.New(webcache.Config{
				Flavor: webcache.FlavorVarnish, CapacityBytes: 8 << 20,
			}, web, inj)
			return c, web
		},
		"webcache-squid": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 100, MeanSize: 2 << 10})
			c := webcache.New(webcache.Config{
				Flavor: webcache.FlavorSquid, CapacityBytes: 8 << 20,
			}, web, inj)
			return c, web
		},
		"boost": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			tr := boost.New(boost.Config{Samples: 200, Features: 8, MaxIters: 256, WorkScale: 50}, inj)
			return tr, &StepGen{}
		},
		"particle": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			s := particle.New(particle.Config{Particles: 200, Cells: 32, WorkScale: 50}, inj)
			return s, &StepGen{}
		},
	}
}

// Names returns the registered system names in deterministic order.
func Names() []string {
	names := make([]string, 0, len(Factories(0)))
	for n := range Factories(0) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MicrorebootSpecs bundles every application with the fault hooks the
// recovery-granularity campaign drives, in deterministic name order: a
// scripted mid-request bug that crashes on transient state only (so every
// ladder rung can recover from it) and, for component-declaring apps, the
// root component whose crash cascades through the graph. The explore
// package's fault tables are pinned against these by test.
func MicrorebootSpecs(seed int64) []recovery.MicrorebootSpec {
	bugs := map[string]string{
		"kvstore":          "R3",
		"lsmdb":            "L1",
		"boost":            "X1",
		"particle":         "VP1",
		"webcache-varnish": "VA1",
		"webcache-squid":   "S3",
	}
	comps := map[string]string{
		"lsmdb":            "memtable",
		"boost":            "preds",
		"webcache-varnish": "lru",
		"webcache-squid":   "lru",
	}
	factories := Factories(seed)
	var out []recovery.MicrorebootSpec
	for _, name := range Names() {
		out = append(out, recovery.MicrorebootSpec{
			Name:      name,
			Mk:        factories[name],
			Bug:       bugs[name],
			Component: comps[name],
		})
	}
	return out
}

// ConcurrencyNames lists the applications that implement
// recovery.SnapshotServer — the ones the concurrent-serving campaign can
// drive (TestConcurrencySpecsServeSnapshots keeps the list honest).
func ConcurrencyNames() []string {
	return []string{"kvstore", "lsmdb", "webcache-squid", "webcache-varnish"}
}

// ConcurrencySpecs bundles the snapshot-serving applications for the
// concurrent-serving campaign, in deterministic name order.
func ConcurrencySpecs(seed int64) []recovery.ConcurrencySpec {
	factories := Factories(seed)
	var out []recovery.ConcurrencySpec
	for _, name := range ConcurrencyNames() {
		out = append(out, recovery.ConcurrencySpec{Name: name, Mk: factories[name]})
	}
	return out
}

// ClusterProfile returns the open-loop client profile the replicated-tier
// ("cluster") campaign drives against the named system on a one-shard
// fabric. The storage apps get a Zipfian read-heavy keyspace that the warm
// phase pre-populates (so reads are effective until a restart loses the
// data); the caches get the same web trace their factory wired as the
// origin; the compute apps get a slow step stream so a replica's step count
// stays inside the factory's iteration budget. ArrivalMean offers half the
// throughput a closed-loop population of two to three clients per replica
// reaches, so two replicas carry the load while the third recovers.
func ClusterProfile(name string, seed int64) shard.Profile {
	switch name {
	case "kvstore", "lsmdb":
		const records, valueSize = 64, 64
		p := shard.Profile{
			Proto: workload.NewYCSB(workload.YCSBConfig{
				Seed: seed, Records: records, ReadFrac: 0.7, InsertFrac: 0.05,
				ValueSize: valueSize, ZipfianKeys: true,
			}),
			ArrivalMean: 230 * time.Microsecond,
			// Long enough that a cold reboot (kvstore 300ms, lsmdb 120ms)
			// completes inside the traffic window: builtin comes back with its
			// RDB restored while vanilla comes back empty, and the difference
			// shows up as stale reads and window length instead of both modes
			// simply staying dark.
			RunFor: 600 * time.Millisecond,
		}
		// Pre-populate the YCSB keyspace on every replica: the generator
		// reads keys it assumes exist.
		for i := uint64(0); i < records; i++ {
			key := fmt.Sprintf("user%010d", i)
			p.Warm = append(p.Warm, &workload.Request{
				Seq: i + 1, Op: workload.OpInsert, Key: key,
				Value: workload.Value(key, 1, valueSize),
			})
		}
		return p
	case "webcache-varnish", "webcache-squid":
		// Must match the factory's WebConfig: the traffic trace and the
		// cache's origin fetcher draw from the same URL population.
		web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 100, MeanSize: 2 << 10})
		// 600ms outlives the 400ms cold boot for the first kill; a returned
		// vanilla cache refills popular URLs on demand.
		p := shard.Profile{Proto: web, ArrivalMean: 625 * time.Microsecond, RunFor: 600 * time.Millisecond}
		warm := web.Clone(seed + 7001)
		for i := 0; i < 300; i++ {
			p.Warm = append(p.Warm, warm.Next())
		}
		return p
	case "boost", "particle":
		// One step per request, about 160 over three replicas: well inside
		// boost's MaxIters=256 budget per replica.
		return shard.Profile{
			Proto:       &spreadStepGen{},
			ArrivalMean: 2500 * time.Microsecond,
			Timeout:     40 * time.Millisecond,
			RunFor:      400 * time.Millisecond,
		}
	}
	panic("registry: no cluster profile for system " + name)
}

// spreadStepGen is StepGen for a replica group: the fabric spreads reads
// over the group by key slot, and StepGen's constant key would pin every
// step to one replica, so a killed replica would never serve the read that
// closes its unavailability window. Keys cycle through 24 names, enough to
// spread over a small group.
type spreadStepGen struct{ seq uint64 }

func (g *spreadStepGen) Next() *workload.Request {
	g.seq++
	return &workload.Request{Seq: g.seq, Op: workload.OpRead, Key: fmt.Sprintf("step%d", g.seq%24)}
}

func (g *spreadStepGen) Clone(seed int64) workload.Generator { return &spreadStepGen{} }

// ShardNames returns the systems the sharded campaign runs: the
// key-addressed stores. The caches are read-only traffic (the lost-write
// ledger would audit nothing) and the compute apps have no keyspace to
// shard.
func ShardNames() []string { return []string{"kvstore", "lsmdb"} }

// ShardProfile returns the open-loop client profile the shard campaign
// drives against the named system: a Zipfian read-heavy keyspace large
// enough that each shard's arc holds real state (so stop-and-copy migration
// has something to ship), warmed before traffic, with read hedging on.
func ShardProfile(name string, seed int64) shard.Profile {
	switch name {
	case "kvstore", "lsmdb":
		const records, valueSize = 1024, 64
		p := shard.Profile{
			Proto: workload.NewYCSB(workload.YCSBConfig{
				Seed: seed, Records: records, ReadFrac: 0.7, InsertFrac: 0.05,
				ValueSize: valueSize, ZipfianKeys: true,
			}),
			Population: 2_000_000,
			HedgeDelay: 4 * time.Millisecond,
		}
		// Pre-populate the YCSB keyspace: the ring splits these across the
		// shards, each replica group warming exactly its own arc.
		for i := uint64(0); i < records; i++ {
			key := fmt.Sprintf("user%010d", i)
			p.Warm = append(p.Warm, &workload.Request{
				Seq: i + 1, Op: workload.OpInsert, Key: key,
				Value: workload.Value(key, 1, valueSize),
			})
		}
		return p
	}
	panic("registry: no shard profile for system " + name)
}

// ShardSystems bundles the shardable applications with their campaign
// profiles, in deterministic name order.
func ShardSystems(seed int64) []shard.System {
	factories := Factories(seed)
	var out []shard.System
	for _, name := range ShardNames() {
		out = append(out, shard.System{
			Name:    name,
			Factory: factories[name],
			Profile: ShardProfile(name, seed),
		})
	}
	return out
}

// ClusterSystems bundles every registered application with its
// replicated-tier profile, in deterministic name order.
func ClusterSystems(seed int64) []shard.System {
	factories := Factories(seed)
	var out []shard.System
	for _, name := range Names() {
		out = append(out, shard.System{
			Name:    name,
			Factory: factories[name],
			Profile: ClusterProfile(name, seed),
		})
	}
	return out
}
