package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// The determinism analyzer: a repo-wide, type-resolved check. Same-seed
// byte-identical reruns are the foundation every campaign gate stands on, so
// production code must not:
//
//   - read the wall clock (time.Now, time.Since) — simulated components ride
//     simclock, and even host-side tooling must keep timing out of
//     deterministic report bytes;
//   - draw from math/rand's shared global generator (rand.Intn,
//     rand.Shuffle, ...) — the global source is process-wide mutable state
//     seeded behind the program's back; deterministic code threads a
//     rand.New(rand.NewSource(seed)). Methods on a threaded *rand.Rand are
//     fine, as are the constructors rand.New/NewSource/NewZipf;
//   - assemble JSON from a key+value map range — iteration order is
//     randomized, so any marshal-bound bytes built that way differ run to
//     run. Key-only ranges stay legal: the sorted-keys idiom collects keys
//     first, sorts, then indexes.
//
// Resolution is through go/types, so aliased imports, shadowed package
// names, and method-vs-function confusion (r.Intn on a threaded *rand.Rand
// vs package-level rand.Intn) are decided exactly rather than by syntax.
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbids wall-clock reads, global math/rand draws, and map-ordered JSON assembly in production code",
	Run:  runDeterminism,
}

// randDeterministicFuncs lists math/rand package-level functions that are
// construction rather than draws from the global generator.
var randDeterministicFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(r *Repo) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range r.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, determinismInFunc(r, pkg, fd)...)
			}
		}
	}
	return out
}

func determinismInFunc(r *Repo, pkg *Pkg, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	add := func(n ast.Node, msg string) {
		file, line, col := r.Position(n.Pos())
		out = append(out, Diagnostic{Analyzer: "determinism", File: file, Line: line, Col: col, Msg: msg})
	}

	// A function is JSON-producing when it is a MarshalJSON method or calls
	// encoding/json's Marshal/MarshalIndent/(*Encoder).Encode anywhere.
	jsonProducer := fd.Name.Name == "MarshalJSON" && fd.Recv != nil
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pkg.Info, call)
		if fn == nil || pkgPathOf(fn) != "encoding/json" {
			return true
		}
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			jsonProducer = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			fn := calleeOf(pkg.Info, node)
			if fn == nil {
				return true
			}
			switch {
			case isPkgFunc(fn, "time", "Now"):
				add(node, "time.Now in deterministic code; use the simulated clock")
			case isPkgFunc(fn, "time", "Since"):
				add(node, "time.Since reads the wall clock; use the simulated clock")
			case pkgPathOf(fn) == "math/rand" && fn.Name() == "Shuffle" && isGlobalRandCall(fn):
				add(node, "rand.Shuffle permutes via the unseeded global generator; use a seeded *rand.Rand")
			case pkgPathOf(fn) == "math/rand" && isGlobalRandCall(fn) && !randDeterministicFuncs[fn.Name()]:
				add(node, fmt.Sprintf("package-level rand.%s draws from shared global state; thread a seeded *rand.Rand", fn.Name()))
			}
		case *ast.RangeStmt:
			if jsonProducer && node.Key != nil && node.Value != nil && rangesMapType(pkg.Info, node.X) {
				add(node, "key+value map iteration in a JSON-producing function; iterate sorted keys for byte-stable output")
			}
		}
		return true
	})
	return out
}

// isGlobalRandCall reports whether fn is a math/rand package-level function
// (as opposed to a method on a threaded *rand.Rand, which is deterministic
// given its seed).
func isGlobalRandCall(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// rangesMapType reports whether e has map type.
func rangesMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
