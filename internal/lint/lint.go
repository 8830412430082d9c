// Package lint is a self-contained static-analysis framework for the
// netfail repository, modelled on golang.org/x/tools/go/analysis but
// built entirely on the standard library so the repo carries no
// external dependencies.
//
// The paper's methodology rests on byte-faithful trace reconstruction
// and reproducible matching windows: a single unseeded random source,
// a stray wall-clock read in a simulation path, or an unsynchronized
// LSP-database access silently corrupts the syslog-vs-IS-IS
// comparison. The three analyzers under internal/lint/ encode those
// invariants so they are checked mechanically on every change — each
// kept because a bug seeded into product code turned it red and no
// test, vet or -race run did (the table is in docs/static-analysis.md):
//
//   - detclock: forbids time.Now/Since/Until and global math/rand
//     outside internal/clock (determinism).
//   - droppederr: forbids silently discarding errors returned by the
//     syslog/IS-IS parse and decode paths (a swallowed error is a
//     silently shortened trace).
//   - lockguard: enforces the "// guarded by mu" field annotation
//     convention (accesses must hold the named mutex).
//
// An Analyzer inspects one type-checked package (a Pass) and reports
// Diagnostics. The loader (Load) type-checks packages offline using
// export data produced by `go list -export`, and the cmd/netfail-lint
// multichecker drives the whole suite.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "detclock".
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// IncludeTests extends the pass to _test.go files: the analyzer
	// also runs over the test-augmented and external-test variants of
	// each package, with findings restricted to positions inside test
	// files (the non-test files were already analyzed in the base
	// pass). Analyzers whose invariants do not bind tests leave this
	// false and never see test code.
	IncludeTests bool
	// Run applies the analyzer to a single package and reports
	// findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides an analyzer with the parsed, type-checked package
// under inspection and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// A Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers
// with IncludeTests set use it to relax rules that only bind
// production code (e.g. detclock permits wall-clock deadlines in
// tests but still forbids the process-global random source).
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Finding is a diagnostic resolved to a file position, tagged with
// the analyzer and package that produced it.
type Finding struct {
	Analyzer string
	Pkg      string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies each analyzer to each package and returns the combined
// findings sorted by position. Test-scoped packages (the variants the
// loader emits for _test.go files) are analyzed only by IncludeTests
// analyzers, and only their test-file diagnostics are kept: the
// non-test files in a test-augmented package were already covered by
// the base pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if pkg.TestScope && !a.IncludeTests {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diagnostics {
				pos := pkg.Fset.Position(d.Pos)
				if pkg.TestScope && !strings.HasSuffix(pos.Filename, "_test.go") {
					continue
				}
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pkg:      pkg.ImportPath,
					Pos:      pos,
					Message:  d.Message,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
