// Package lint is the phoenixlint static contract suite: type-resolved
// analyzers (snapshot purity, dirty-bit soundness, cost charging,
// determinism) run over the whole module, with a checked-in baseline of
// accepted exceptions. Test files are exempt; they may read the wall clock
// for timeouts.
package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Diagnostic is one position-carrying analyzer finding. Like pta.Finding,
// the JSON encoding is part of a campaign report format and must stay
// byte-stable: same tree, byte-identical output.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // repo-relative, forward slashes
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Msg      string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Msg)
}

// Analyzer is one registered static contract check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Repo) []Diagnostic
}

// Analyzers returns the registered contract analyzers in their canonical
// (report) order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		purityAnalyzer,
		dirtyBitAnalyzer,
		costChargeAnalyzer,
		determinismAnalyzer,
	}
}

// AnalyzerByName returns the registered analyzer with the given name.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers runs the given analyzers over the repo and returns all
// diagnostics sorted by (File, Line, Col, Analyzer, Msg). The result is
// never nil, so it marshals as [] rather than null.
func RunAnalyzers(r *Repo, analyzers []*Analyzer) []Diagnostic {
	out := []Diagnostic{}
	for _, a := range analyzers {
		out = append(out, a.Run(r)...)
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}

// BaselineEntry is one accepted exception: a diagnostic the tree is allowed
// to keep, matched line-independently by (analyzer, file, msg) so ordinary
// edits that shift lines do not invalidate it. Why records the one-line
// justification; entries without one should not be merged.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Msg      string `json:"msg"`
	Why      string `json:"why"`
}

// BaselinePath is the repo-relative location of the checked-in baseline.
const BaselinePath = "internal/lint/baseline.json"

// LoadBaseline reads a baseline file. A missing file is an empty baseline,
// not an error.
func LoadBaseline(path string) ([]BaselineEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []BaselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("lint: baseline %s: %w", path, err)
	}
	for i, e := range entries {
		if e.Analyzer == "" || e.File == "" || e.Msg == "" || e.Why == "" {
			return nil, fmt.Errorf("lint: baseline %s: entry %d incomplete (analyzer, file, msg, why all required)", path, i)
		}
	}
	return entries, nil
}

// ApplyBaseline splits diagnostics into those surviving the baseline and
// those an entry suppresses. Each entry may match any number of diagnostics
// (a file-wide exemption for one message is one entry, not one per
// occurrence).
func ApplyBaseline(diags []Diagnostic, base []BaselineEntry) (kept, suppressed []Diagnostic) {
	kept = []Diagnostic{}
	for _, d := range diags {
		matched := false
		for _, e := range base {
			if d.Analyzer == e.Analyzer && d.File == e.File && d.Msg == e.Msg {
				matched = true
				break
			}
		}
		if matched {
			suppressed = append(suppressed, d)
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}
