// Package detclock implements the determinism analyzer: inside the
// reproduction's deterministic packages, wall-clock reads and the
// process-global math/rand source are forbidden.
//
// The paper's analysis (failure durations, matching windows, Tables
// 2–7) must reproduce bit-for-bit from a seed. Every timestamp in a
// simulated trace therefore flows from the simulation clock or an
// explicit parameter, and every random draw from a seeded
// *rand.Rand. A stray time.Now() or global rand.Intn() compiles
// fine, passes tests on a fast machine, and silently corrupts the
// syslog-vs-IS-IS comparison — exactly the defect class a compiler
// never catches.
//
// The analyzer flags, in every module package except internal/clock
// (the one sanctioned wall-clock source):
//
//   - any use of time.Now, time.Since, or time.Until (time.Since and
//     time.Until read the wall clock implicitly);
//   - any use of a package-level math/rand function that draws from
//     the process-global source (rand.Int, rand.Intn, rand.Seed,
//     rand.Shuffle, ...). Constructing a seeded source with rand.New
//     and rand.NewSource remains legal — that is the required idiom.
package detclock

import (
	"go/ast"
	"go/types"
	"strings"

	"netfail/internal/lint"
)

// Analyzer is the detclock pass. It extends to _test.go files with
// the wall-clock rule relaxed: tests may poll real time while waiting
// on sockets and goroutines (the netfail-serve UDP tests do), but a
// test that draws from the process-global math/rand source produces
// unreproducible test data, so the randomness rule binds everywhere.
var Analyzer = &lint.Analyzer{
	Name:         "detclock",
	Doc:          "forbid wall-clock reads and global math/rand in deterministic packages",
	IncludeTests: true,
	Run:          run,
}

// clockPackage is the only package allowed to touch the wall clock;
// everything else injects a clock.Clock or takes timestamps as
// parameters.
const clockPackage = "netfail/internal/clock"

// inScope reports whether the package at path is subject to
// determinism enforcement. The whole module is in scope except
// internal/clock itself. External test packages inherit the scope of
// the package they test ("netfail/internal/clock_test" is exempt like
// clock itself).
func inScope(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	if path == clockPackage || strings.HasPrefix(path, clockPackage+"/") {
		return false
	}
	return path == "netfail" ||
		strings.HasPrefix(path, "netfail/internal/") ||
		strings.HasPrefix(path, "netfail/cmd/") ||
		strings.HasPrefix(path, "netfail/examples/")
}

// wallClockFuncs are the time package functions that read the wall
// clock.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// sourceConstructors are the math/rand package-level functions that
// do not draw from the global source and stay allowed.
var sourceConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *lint.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are
			// fine: only package-level functions touch global state.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] && !pass.InTestFile(sel.Pos()) {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock in deterministic package %s; inject a clock.Clock (netfail/internal/clock) or pass the timestamp as a parameter",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !sourceConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"rand.%s draws from the process-global source in deterministic package %s; use a seeded rand.New(rand.NewSource(seed))",
						fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
