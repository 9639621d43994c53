package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintFlagsViolations feeds the determinism analyzer a throwaway module
// with one synthetic violation of each rule and asserts each is caught once,
// that the clean equivalents are not, and that test files are exempt.
func TestLintFlagsViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module p\n\ngo 1.22\n")
	write("bad.go", `package p

import (
	"encoding/json"
	"math/rand"
	"time"
)

func wall() int64 { return time.Now().UnixNano() }

func draw() int { return rand.Intn(6) }

func encode(m map[string]int) []byte {
	total := 0
	for k, v := range m {
		_ = k
		total += v
	}
	b, _ := json.Marshal(total)
	return b
}
`)
	write("good.go", `package p

import (
	"encoding/json"
	"math/rand"
	"sort"
)

func seeded(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(6) }

func encodeSorted(m map[string]int) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]int, 0, len(keys))
	for i, k := range keys {
		_ = i
		vals = append(vals, m[k])
	}
	b, _ := json.Marshal(vals)
	return b
}
`)
	write("skip_test.go", `package p

import "time"

func inTest() int64 { return time.Now().UnixNano() }
`)
	repo, err := LoadRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(repo, []*Analyzer{determinismAnalyzer})
	rules := map[string]int{}
	for _, d := range diags {
		if d.File != "bad.go" {
			t.Errorf("diagnostic outside bad.go: %s", d)
		}
		switch {
		case strings.Contains(d.Msg, "time.Now"):
			rules["wallclock"]++
		case strings.Contains(d.Msg, "rand.Intn"):
			rules["globalrand"]++
		case strings.Contains(d.Msg, "map iteration"):
			rules["maporder"]++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, want := range []string{"wallclock", "globalrand", "maporder"} {
		if rules[want] != 1 {
			t.Errorf("rule %s flagged %d time(s), want 1 (all: %v)", want, rules[want], diags)
		}
	}
}
