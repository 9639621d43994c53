package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSizes shrink every workload so the whole suite runs in seconds; with
// a near-zero --seconds every run is exactly minEpochs epochs.
var testSizes = sizes{
	minEpochs:      2,
	serveKeys:      2000,
	serveBlock:     200,
	serveBatch:     32,
	serveBlocks:    10,
	crashKeys:      1000,
	crashBlock:     100,
	crashKills:     6,
	crashDumpEvery: 3,
	shardRunFor:    600 * time.Millisecond,
}

// hostClock reports whether a metric is measured on the host clock, where
// two runs legitimately differ.
func hostClock(name string) bool {
	return strings.Contains(name, "host") || name == "setup_s" || name == "trace_overhead_pct"
}

// runBoth returns the end-to-end and per-layer results of one seed.
func runBoth(t *testing.T, w benchWorkload, seed int64) (result, result) {
	t.Helper()
	o := opts{seed: seed, seconds: time.Nanosecond, sz: testSizes}
	e2e, fails, err := endToEnd(w, o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	layer, lfails, err := perLayer(w, o, filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
	}
	for _, f := range append(fails, lfails...) {
		t.Logf("%s seed %d: check failed: %s", w.name, seed, f)
	}
	return e2e, layer
}

// checkDeclared compares a run's metrics with the list BENCHMARK.json
// declares for its mode: the same names, each with its declared unit.
func checkDeclared(t *testing.T, list string, r result) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(decl[list], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(r.Metrics) {
		t.Errorf("%s declares %d metrics, the run printed %d", list, len(metrics), len(r.Metrics))
	}
	for _, m := range metrics {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s metric %s (%s): printed %v", list, m.Name, m.Unit, got)
		}
	}
}

func checkClean(t *testing.T, what string, r result) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
	}
}

// TestSameSeedIsDeterministic runs every workload twice on one seed: the
// simulated-clock metrics and the per-layer counts must be identical to the
// last bit. (Within a run, every epoch, traced or not, must also match the
// first epoch's simulated signature, or the run is not clean.) A second
// seed, held out for later claims, must run clean.
func TestSameSeedIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e1, l1 := runBoth(t, w, 1)
			e2, l2 := runBoth(t, w, 1)
			for _, pair := range [][2]result{{e1, e2}, {l1, l2}} {
				a, b := pair[0], pair[1]
				checkClean(t, "seed 1", a)
				if a.Attempted != b.Attempted {
					t.Errorf("attempted %d vs %d", a.Attempted, b.Attempted)
				}
				for name, m := range a.Metrics {
					if hostClock(name) {
						continue
					}
					if got := b.Metrics[name]; got != m {
						t.Errorf("%s: %v vs %v", name, m, got)
					}
				}
			}
			checkDeclared(t, "end_to_end", e1)
			checkDeclared(t, "per_layer", l1)
			h1, h2 := runBoth(t, w, 2)
			checkClean(t, "held-out seed 2", h1)
			checkClean(t, "held-out seed 2 traced", h2)
		})
	}
}

// TestTracerSelfTime checks the self-time arithmetic on hand-built spans.
func TestTracerSelfTime(t *testing.T) {
	var now time.Duration
	tr := newTracer()
	tr.setSim(func() time.Duration { return now })
	tr.begin("recovery.outer", 1)
	now += 10
	tr.begin("mem.inner", 1)
	now += 30
	tr.end()
	now += 5
	tr.end()
	if got := tr.selfS["recovery"]; got != 15 {
		t.Errorf("recovery sim self time %v, want 15", got)
	}
	if got := tr.selfS["mem"]; got != 30 {
		t.Errorf("mem sim self time %v, want 30", got)
	}
	if tr.kept[1].parent != 0 || tr.kept[0].parent != -1 {
		t.Errorf("parents %d %d", tr.kept[0].parent, tr.kept[1].parent)
	}
	if s := tr.stats("recovery.outer"); s.count != 1 || s.sim != 45 {
		t.Errorf("outer stats %+v", s)
	}
}
