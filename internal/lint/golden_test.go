package lint

import (
	"bytes"
	"sync"
	"testing"
)

// fixtureRepo loads the self-contained fixture module under testdata/src
// once per test binary. The fixture mirrors the real layout (internal/mem,
// internal/kernel, ...) so the suffix-matched package scopes apply to it
// exactly as they do to the real module.
var fixtureRepo = sync.OnceValues(func() (*Repo, error) {
	return LoadRepo("testdata/src")
})

// golden is the full expected output of every analyzer over the fixture:
// one diagnostic per planted mutant, at its exact position, and nothing for
// the clean counterparts planted beside them.
var golden = []Diagnostic{
	{"determinism", "internal/det/det.go", 14, 8, "time.Now in deterministic code; use the simulated clock"},
	{"determinism", "internal/det/det.go", 15, 20, "time.Since reads the wall clock; use the simulated clock"},
	{"determinism", "internal/det/det.go", 20, 9, "package-level rand.Intn draws from shared global state; thread a seeded *rand.Rand"},
	{"determinism", "internal/det/det.go", 25, 2, "rand.Shuffle permutes via the unseeded global generator; use a seeded *rand.Rand"},
	{"determinism", "internal/det/det.go", 37, 2, "key+value map iteration in a JSON-producing function; iterate sorted keys for byte-stable output"},
	{"determinism", "internal/det/det.go", 73, 2, "key+value map iteration in a JSON-producing function; iterate sorted keys for byte-stable output"},
	{"cost-charging", "internal/kernel/kernel.go", 24, 1, "exported BadSweep does per-page work without charging a costmodel term"},
	{"cost-charging", "internal/kernel/kernel.go", 30, 1, "exported CondSweep does per-page work but charges only conditionally; charge on every path"},
	{"cost-charging", "internal/kernel/kernel.go", 52, 1, "exported BadTransitive does per-page work without charging a costmodel term"},
	{"dirty-bit", "internal/mem/mem.go", 69, 2, "PokeRaw writes into a frame-backed buffer without materialize/dirty-marking evidence; delta checksums will skip the change"},
	{"dirty-bit", "internal/mem/mem.go", 76, 2, "BlastCopy copies into a frame-backed buffer without materialize/dirty-marking evidence; delta checksums will skip the change"},
	{"dirty-bit", "internal/mem/mem.go", 82, 2, "SwapData replaces a frame's Data buffer without materialize/dirty-marking evidence; delta checksums will skip the change"},
	{"snapshot-purity", "internal/snapreader/snapreader.go", 19, 3, "reader closure of GlobalWriter.OpenSnapshotReader writes package-level state served; snapshot readers must be pure"},
	{"snapshot-purity", "internal/snapreader/snapreader.go", 31, 3, "reader closure of ReceiverWriter.OpenSnapshotReader writes captured variable r; snapshot readers must be pure"},
	{"snapshot-purity", "internal/snapreader/snapreader.go", 42, 3, "reader closure of CaptureWriter.OpenSnapshotReader writes captured variable count; snapshot readers must be pure"},
	{"snapshot-purity", "internal/snapreader/snapreader.go", 55, 10, "reader closure of Allocator.OpenSnapshotReader calls heap.Alloc; snapshot readers must not allocate simulated memory"},
	{"snapshot-purity", "internal/snapreader/snapreader.go", 73, 48, "timeOf (reachable from ClockReader.OpenSnapshotReader's reader closure) calls Clock.Now; snapshot readers must not touch the clock"},
	{"snapshot-purity", "internal/snapreader/snapreader.go", 80, 3, "reader closure of ViewMutator.OpenSnapshotReader calls AddressSpace.WriteU8; the frozen view must not be mutated"},
}

// TestGoldenDiagnostics checks each analyzer against its slice of the golden
// table: every planted mutant flagged at its exact position, nothing else.
func TestGoldenDiagnostics(t *testing.T) {
	repo, err := fixtureRepo()
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			var want []Diagnostic
			for _, d := range golden {
				if d.Analyzer == a.Name {
					want = append(want, d)
				}
			}
			got := RunAnalyzers(repo, []*Analyzer{a})
			if len(got) != len(want) {
				t.Errorf("got %d diagnostics, want %d", len(got), len(want))
			}
			for i := 0; i < len(got) || i < len(want); i++ {
				switch {
				case i >= len(want):
					t.Errorf("unexpected: %s", got[i])
				case i >= len(got):
					t.Errorf("missing: %s", want[i])
				case got[i] != want[i]:
					t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGoldenCombined runs all analyzers together and checks the global
// (File, Line, Col, Analyzer, Msg) sort order against the full table.
func TestGoldenCombined(t *testing.T) {
	repo, err := fixtureRepo()
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	want := append([]Diagnostic(nil), golden...)
	sortDiagnostics(want)
	got := RunAnalyzers(repo, Analyzers())
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}

// TestAnalyzerRegistry pins the registration surface: canonical order and
// name lookup.
func TestAnalyzerRegistry(t *testing.T) {
	names := []string{}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s: missing Doc or Run", a.Name)
		}
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) does not round-trip", a.Name)
		}
	}
	want := []string{"snapshot-purity", "dirty-bit", "cost-charging", "determinism"}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
	if AnalyzerByName("no-such") != nil {
		t.Error("AnalyzerByName on unknown name should return nil")
	}
}

// TestBaselineSuppression exercises the baseline path on fixture findings:
// one entry suppresses exactly its (analyzer, file, msg) matches,
// line-independently, and leaves the rest.
func TestBaselineSuppression(t *testing.T) {
	repo, err := fixtureRepo()
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	all := RunAnalyzers(repo, Analyzers())
	base := []BaselineEntry{{
		Analyzer: "cost-charging",
		File:     "internal/kernel/kernel.go",
		Msg:      "exported BadSweep does per-page work without charging a costmodel term",
		Why:      "test entry",
	}}
	kept, suppressed := ApplyBaseline(all, base)
	if len(suppressed) != 1 || len(kept) != len(all)-1 {
		t.Fatalf("suppressed %d kept %d, want 1 and %d", len(suppressed), len(kept), len(all)-1)
	}
	if suppressed[0].Line != 24 {
		t.Errorf("suppressed wrong diagnostic: %s", suppressed[0])
	}
	for _, d := range kept {
		if d.Msg == base[0].Msg {
			t.Errorf("baseline failed to suppress: %s", d)
		}
	}
}

// TestReportByteIdentity runs the full fixture campaign twice and requires
// byte-identical JSON — the same determinism bar CI holds the real module's
// lint campaign to.
func TestReportByteIdentity(t *testing.T) {
	run := func() []byte {
		rep, err := Campaign("testdata/src")
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("campaign JSON not byte-identical across runs:\n%s\n--- vs ---\n%s", a, b)
	}
	rep, err := Campaign("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Error("fixture campaign must not be clean: it exists to be full of mutants")
	}
	if len(rep.Findings) != len(golden) {
		t.Errorf("fixture campaign found %d, want %d", len(rep.Findings), len(golden))
	}
}
