// Command phxbench is the repository's dual-clock benchmark. It drives three
// workloads through the public APIs of recovery, shard and apps/kvstore,
// checks their outputs, and prints one JSON result line:
//
//	go build -o phxbench . && ./phxbench --workload kv-serve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run and writes the spans as a
// Chrome trace (see NOTES.md for the workloads, metrics and baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// epoch is one fresh set-up of a workload followed by its fixed work. Every
// epoch of one seed is the same simulation, so its simulated figures and
// layer counts repeat exactly; only its host figures differ. The work is
// fixed rather than timed because the store grows as the clients insert: a
// timed phase would serve a larger store on a faster host.
type epoch struct {
	setup time.Duration // boot plus dataset load

	ops  int           // client requests answered
	host time.Duration // host time of the measured work (checks excluded)
	sim  time.Duration // simulated time of the measured work

	winHost []float64 // host µs of each gated window
	tailQ   float64   // the highest quantile with ≥10 windows beyond it
	// simMean and simTail summarise the gated window on the simulated clock:
	// its mean and its tailQ quantile.
	simMean, simTail float64

	effective, answered int // requests that were effective, of all answered

	attempted, failed int64
	fails             []string // failed output checks

	layer map[string]float64 // per-layer values (traced epochs)
	// sig renders everything an epoch computes on the simulated clock;
	// epochs of one seed must agree on it byte for byte.
	sig string
}

func (e *epoch) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		if len(e.fails) < 8 {
			e.fails = append(e.fails, fmt.Sprintf(format, args...))
		}
	}
}

// benchWorkload is one named benchmark workload: run sets it up fresh and
// does one epoch of fixed work, traced when tr is not nil.
type benchWorkload struct {
	name string
	run  func(seed int64, sz sizes, tr *tracer) (*epoch, error)
}

type opts struct {
	seed    int64
	seconds time.Duration
	sz      sizes
}

// sizes are the input sizes of every workload (see NOTES.md for why).
type sizes struct {
	minEpochs int // epochs per run at least, however short --seconds is

	serveKeys   int
	serveBlock  int // requests between snapshot batches
	serveBatch  int // reads per snapshot batch
	serveBlocks int // batches per epoch (≥1,000 for a p99)

	crashKeys      int
	crashBlock     int // requests between kills
	crashKills     int // kills per epoch (≥200 for a p95)
	crashDumpEvery int // full-dump check period, in kills

	shardRunFor time.Duration // arrival window of one fabric run
}

var fullSizes = sizes{
	minEpochs:      2,
	serveKeys:      50_000,
	serveBlock:     1000,
	serveBatch:     256,
	serveBlocks:    1000,
	crashKeys:      20_000,
	crashBlock:     500,
	crashKills:     200,
	crashDumpEvery: 25,
	shardRunFor:    1500 * time.Millisecond,
}

var workloads = []benchWorkload{
	{"kv-serve", runKVServe},
	{"kv-crash-recover", runKVCrash},
	{"shard-openloop", runShard},
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runEpoch runs one epoch after collecting the previous one's garbage, so no
// epoch pays for another, and checks it against the first epoch of the run.
func runEpoch(w benchWorkload, o opts, tr *tracer, first *epoch) (*epoch, error) {
	runtime.GC()
	e, err := w.run(o.seed, o.sz, tr)
	if err != nil {
		return nil, err
	}
	if first != nil {
		e.check(e.sig == first.sig, "epoch diverged from the first epoch of seed %d on the simulated clock", o.seed)
	}
	return e, nil
}

// endToEnd runs epochs until their measured host time reaches o.seconds and
// returns the end-to-end metrics with the pooled check accounting.
func endToEnd(w benchWorkload, o opts) (result, []string, error) {
	var first *epoch
	var setups, win []float64
	var ops int
	var spent time.Duration
	res := result{}
	var fails []string
	for n := 1; ; n++ {
		e, err := runEpoch(w, o, nil, first)
		if err != nil {
			return result{}, nil, err
		}
		if first == nil {
			first = e
		}
		setups = append(setups, e.setup.Seconds())
		ops += e.ops
		win = append(win, e.winHost...)
		res.Attempted += e.attempted
		res.Failed += e.failed
		fails = append(fails, e.fails...)
		spent += e.host
		if n >= o.sz.minEpochs && spent >= o.seconds {
			break
		}
	}
	res.Correct = len(fails) == 0
	res.Metrics = map[string]metric{
		"ops_per_host_s":     {ratio(float64(ops), spent.Seconds()), "req/s"},
		"setup_s":            {quantile(setups, 0.5), "s"},
		"sim_ops_per_s":      {ratio(float64(first.ops), first.sim.Seconds()), "req/s"},
		"window_host_us_p50": {quantile(win, 0.5), "us"},
		"window_sim_us_mean": {first.simMean, "us"},
		"window_sim_us_tail": {first.simTail, "us"},
		"availability_pct":   {100 * ratio(float64(first.effective), float64(first.answered)), "%"},
	}
	return res, fails, nil
}

// perLayer runs four epochs, untraced, traced, traced, untraced, so that a
// drift in host speed over the run cancels out of trace_overhead_pct, and
// returns the per-layer metrics of the first traced epoch.
func perLayer(w benchWorkload, o opts, tracePath string) (result, []string, error) {
	var first, traced *epoch
	var tr *tracer
	var opsOn, opsOff int
	var hostOn, hostOff time.Duration
	var winOff []float64
	res := result{}
	var fails []string
	for _, on := range []bool{false, true, true, false} {
		var t *tracer
		if on {
			t = newTracer("recovery.serve_request")
		}
		e, err := runEpoch(w, o, t, first)
		if err != nil {
			return result{}, nil, err
		}
		if first == nil {
			first = e
		}
		res.Attempted += e.attempted
		res.Failed += e.failed
		fails = append(fails, e.fails...)
		if on {
			opsOn += e.ops
			hostOn += e.host
		} else {
			opsOff += e.ops
			hostOff += e.host
			winOff = append(winOff, e.winHost...)
		}
		if on && traced == nil {
			traced, tr = e, t
		}
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return result{}, nil, err
	}
	res.Correct = len(fails) == 0

	m := map[string]metric{}
	for k, v := range traced.layer {
		m[k] = metric{v, layerUnits[k]}
	}
	untracedOps := ratio(float64(opsOff), hostOff.Seconds())
	tracedOps := ratio(float64(opsOn), hostOn.Seconds())
	m["trace_overhead_pct"] = metric{100 * ratio(untracedOps-tracedOps, untracedOps), "%"}
	m["failed_frac"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	// The host tail swings too much from run to run on a shared machine to
	// bound a regression (see NOTES.md), so it is reported here, from the
	// untraced epochs, rather than among the end-to-end metrics.
	m["window_host_us_tail"] = metric{quantile(winOff, first.tailQ), "us"}

	ser := tr.stats("recovery.serve_request")
	samples := make([]float64, len(ser.samples))
	for i, s := range ser.samples {
		samples[i] = float64(s)
	}
	m["recovery.serve_request_host_ns_p50"] = metric{quantile(samples, 0.5), "ns"}
	m["recovery.serve_request_host_ns_p99"] = metric{quantile(samples, 0.99), "ns"}
	m["workload.next_host_ns"] = metric{tr.meanHost("workload.next"), "ns"}
	m["recovery.snapshot_commit_host_us"] = metric{tr.meanHost("recovery.snapshot_commit") / 1e3, "us"}
	m["recovery.snapshot_commit_sim_us"] = metric{tr.meanSim("recovery.snapshot_commit") / 1e3, "us"}
	m["recovery.snapshot_reads_host_us"] = metric{tr.meanHost("recovery.snapshot_reads") / 1e3, "us"}
	m["recovery.snapshot_reads_sim_us"] = metric{tr.meanSim("recovery.snapshot_reads") / 1e3, "us"}
	m["recovery.handle_failure_host_ms"] = metric{tr.meanHost("recovery.handle_failure") / 1e6, "ms"}
	m["recovery.handle_failure_sim_ms"] = metric{tr.meanSim("recovery.handle_failure") / 1e6, "ms"}
	m["recovery.first_answer_host_us"] = metric{tr.meanHost("recovery.first_answer") / 1e3, "us"}
	m["recovery.first_answer_sim_us"] = metric{tr.meanSim("recovery.first_answer") / 1e3, "us"}
	for _, l := range traceLayers {
		m[l+".self_host_ms"] = metric{float64(tr.selfH[l]) / 1e6, "ms"}
		m[l+".self_sim_ms"] = metric{float64(tr.selfS[l]) / 1e6, "ms"}
	}
	res.Metrics = m
	return res, fails, nil
}

// traceLayers are the layers the benchmark opens spans into; each reports
// its self time on both clocks.
var traceLayers = []string{"workload", "recovery", "kernel", "kvstore", "shard", "mem"}

// layerUnits gives the unit of every per-layer value a workload reports
// through epoch.layer. Every workload reports every key (0 where the layer
// does no such work), so traced runs of all workloads print the same set.
var layerUnits = map[string]string{
	"recovery.fallbacks":            "count",
	"kernel.moved_pages":            "pages",
	"kernel.checksums_hashed":       "pages",
	"kernel.checksum_reuse_ratio":   "ratio",
	"kernel.migrate_rounds":         "count",
	"kernel.migrate_shipped_pages":  "pages",
	"kernel.migrate_final_delta":    "pages",
	"mem.dirty_pages_after_boot":    "pages",
	"mem.snapshot_pages_copied":     "pages",
	"mem.resident_pages":            "pages",
	"mem.read_u64_host_ns":          "ns",
	"mem.checksum_page_host_ns":     "ns",
	"heap.live_chunks":              "count",
	"heap.sweep_freed_chunks":       "count",
	"kvstore.checkpoints":           "count",
	"netsim.delivered_per_req":      "ratio",
	"netsim.dropped":                "count",
	"shard.retried_frac":            "ratio",
	"shard.node_recovery_sim_us":    "us",
	"shard.unavail_sim_ms":          "ms",
	"kernel.migrate_cutover_sim_us": "us",
}

// newLayer returns a per-layer map with every key present and zero.
func newLayer() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for k := range layerUnits {
		m[k] = 0
	}
	return m
}

func run(name string, seed int64, seconds float64, trace bool, traceDir string) (result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return result{}, err
	}
	if seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	o := opts{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), sz: fullSizes}
	var res result
	var fails []string
	if trace {
		res, fails, err = perLayer(w, o, filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed)))
	} else {
		res, fails, err = endToEnd(w, o)
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return res, err
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-serve, kv-crash-recover or shard-openloop")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds of measured work; epochs repeat until it is spent")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for Chrome trace files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "phxbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(1)
	}
	printSummary(*name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phxbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSummary writes the metrics one per line to stderr for reading by eye.
func printSummary(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
