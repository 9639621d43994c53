package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// maxKeptSpans bounds the spans held for the Chrome trace export. Every span
// still feeds the per-name and per-layer aggregates; only the export is
// truncated, so a long traced phase cannot grow memory without limit.
const maxKeptSpans = 20000

// span is one call the benchmark made into a layer, stamped on both clocks.
// Host stamps are nanoseconds since the tracer started; sim stamps are the
// simulated clock of the machine the call ran on.
type span struct {
	name   string
	req    uint64
	parent int // index into tracer.kept, -1 for a root or an unkept parent
	h0, h1 int64
	s0, s1 time.Duration
}

// open is a span still on the call stack, with the time its children
// covered so far (self time = duration minus child time).
type open struct {
	span
	kept      int
	childHost int64
	childSim  time.Duration
}

// nameStats aggregates every finished span of one name.
type nameStats struct {
	count   int
	host    int64
	sim     time.Duration
	samples []int64 // host durations, kept only for names that need percentiles
}

// tracer keeps spans in memory and derives per-name and per-layer numbers.
// A nil *tracer is valid and records nothing, which is how the untraced runs
// call the same code paths.
type tracer struct {
	start   time.Time
	sim     func() time.Duration
	stack   []open
	kept    []span
	total   int
	names   map[string]*nameStats
	sampled map[string]bool
	selfH   map[string]int64
	selfS   map[string]time.Duration
}

func newTracer(sampled ...string) *tracer {
	t := &tracer{
		start:   time.Now(),
		sim:     func() time.Duration { return 0 },
		names:   map[string]*nameStats{},
		sampled: map[string]bool{},
		selfH:   map[string]int64{},
		selfS:   map[string]time.Duration{},
	}
	for _, n := range sampled {
		t.sampled[n] = true
	}
	return t
}

// setSim points the tracer at the simulated clock of the machine the next
// calls run on.
func (t *tracer) setSim(f func() time.Duration) {
	if t != nil {
		t.sim = f
	}
}

// begin opens a span named "<layer>.<call>" for request req.
func (t *tracer) begin(name string, req uint64) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].kept
	}
	o := open{span: span{name: name, req: req, parent: parent, s0: t.sim()}, kept: -1}
	if len(t.kept) < maxKeptSpans {
		o.kept = len(t.kept)
		t.kept = append(t.kept, span{})
	}
	o.h0 = time.Since(t.start).Nanoseconds()
	t.stack = append(t.stack, o)
}

// end closes the innermost span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.finish(t.sim())
}

// endSim closes the innermost span with an explicit simulated duration, for
// calls whose simulated clock is private to the layer (shard.Run owns its
// fabric clock; the benchmark learns the simulated span from the report).
func (t *tracer) endSim(simDur time.Duration) {
	if t == nil {
		return
	}
	t.finish(t.stack[len(t.stack)-1].s0 + simDur)
}

func (t *tracer) finish(s1 time.Duration) {
	h1 := time.Since(t.start).Nanoseconds()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	o.h1, o.s1 = h1, s1
	hostDur, simDur := o.h1-o.h0, o.s1-o.s0
	layer := layerOf(o.name)
	t.selfH[layer] += hostDur - o.childHost
	t.selfS[layer] += simDur - o.childSim
	if n > 0 {
		t.stack[n-1].childHost += hostDur
		t.stack[n-1].childSim += simDur
	}
	ns := t.names[o.name]
	if ns == nil {
		ns = &nameStats{}
		t.names[o.name] = ns
	}
	ns.count++
	ns.host += hostDur
	ns.sim += simDur
	if t.sampled[o.name] {
		ns.samples = append(ns.samples, hostDur)
	}
	t.total++
	if o.kept >= 0 {
		t.kept[o.kept] = o.span
	}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// stats returns the aggregate for a span name (zero when never called).
func (t *tracer) stats(name string) nameStats {
	if ns := t.names[name]; ns != nil {
		return *ns
	}
	return nameStats{}
}

// meanHost and meanSim are per-call means of a span name, 0 when never called.
func (t *tracer) meanHost(name string) float64 {
	s := t.stats(name)
	if s.count == 0 {
		return 0
	}
	return float64(s.host) / float64(s.count)
}

func (t *tracer) meanSim(name string) float64 {
	s := t.stats(name)
	if s.count == 0 {
		return 0
	}
	return float64(s.sim) / float64(s.count)
}

// traceEvent is one Chrome trace-event ("X" complete event or "M" metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the kept spans as Chrome trace-event JSON: process 1
// is the host clock, process 2 the simulated clock, so both timelines of
// every call sit side by side in a trace viewer.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host clock"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "simulated clock"}},
	}
	for i, s := range t.kept {
		if s.name == "" {
			continue // opened but never closed (cannot happen after a clean run)
		}
		args := map[string]any{"span": i, "parent": s.parent, "req": s.req}
		events = append(events,
			traceEvent{Name: s.name, Cat: layerOf(s.name), Ph: "X", Ts: float64(s.h0) / 1e3, Dur: float64(s.h1-s.h0) / 1e3, Pid: 1, Tid: 1, Args: args},
			traceEvent{Name: s.name, Cat: layerOf(s.name), Ph: "X", Ts: float64(s.s0.Nanoseconds()) / 1e3, Dur: float64((s.s1 - s.s0).Nanoseconds()) / 1e3, Pid: 2, Tid: 1, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns",
		"otherData": map[string]any{"spans_total": t.total, "spans_kept": len(events)/2 - 1}}); err != nil {
		f.Close()
		return fmt.Errorf("trace encode: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
