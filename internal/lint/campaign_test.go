package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// repoCampaign runs the campaign over the enclosing module and loads its
// baseline, once per test binary: the gates below share one full-module
// type-check.
var repoCampaign = sync.OnceValues(func() (*repoGate, error) {
	root, err := FindRoot(".")
	if err != nil {
		return nil, err
	}
	rep, err := Campaign(root)
	if err != nil {
		return nil, err
	}
	base, err := LoadBaseline(filepath.Join(root, filepath.FromSlash(BaselinePath)))
	if err != nil {
		return nil, err
	}
	return &repoGate{rep, base}, nil
})

type repoGate struct {
	rep  *Report
	base []BaselineEntry
}

// TestRepoCampaignClean is the static-contract gate over the real module:
// every analyzer runs on the enclosing repository, and any finding not
// covered by the checked-in baseline fails the build. New accepted
// exceptions belong in baseline.json with a one-line justification.
func TestRepoCampaignClean(t *testing.T) {
	g, err := repoCampaign()
	if err != nil {
		t.Fatal(err)
	}
	rep, base := g.rep, g.base
	if !rep.Clean {
		for _, d := range rep.Findings {
			t.Errorf("finding beyond baseline: %s", d)
		}
	}
	// The baseline must stay live: an entry that no longer suppresses
	// anything is stale and should be deleted, not carried.
	for _, e := range base {
		matched := false
		for _, d := range rep.Suppressed {
			if d.Analyzer == e.Analyzer && d.File == e.File && d.Msg == e.Msg {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("stale baseline entry (suppresses nothing): %s / %s / %q", e.Analyzer, e.File, e.Msg)
		}
	}
}

// TestDeterministicPackagesClean holds the simulation packages to a stricter
// bar than the repo gate: no analyzer may find anything in them, baselined
// or not, and no baseline entry may name a file there, so no accepted
// exception can ever cover a wall-clock read, global-rand draw, or
// map-ordered JSON in them.
func TestDeterministicPackagesClean(t *testing.T) {
	g, err := repoCampaign()
	if err != nil {
		t.Fatal(err)
	}
	diags := append(append([]Diagnostic(nil), g.rep.Findings...), g.rep.Suppressed...)
	for _, pkg := range []string{"netsim", "shard", "explore", "simclock", "experiments"} {
		prefix := "internal/" + pkg + "/"
		t.Run(pkg, func(t *testing.T) {
			for _, d := range diags {
				if strings.HasPrefix(d.File, prefix) {
					t.Errorf("%s", d)
				}
			}
			for _, e := range g.base {
				if strings.HasPrefix(e.File, prefix) {
					t.Errorf("baseline entry in a deterministic package: %s / %s / %q", e.Analyzer, e.File, e.Msg)
				}
			}
		})
	}
}
