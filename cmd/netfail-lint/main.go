// Command netfail-lint runs the repository's static-analysis suite —
// the invariant checkers under internal/lint — over the named package
// patterns (default ./...), printing one line per finding and exiting
// non-zero if any invariant is violated:
//
//	go run ./cmd/netfail-lint ./...
//
// The suite (see docs/static-analysis.md):
//
//	detclock    no wall clock / global math/rand outside internal/clock
//	droppederr  no silently discarded parse/decode errors
//	lockguard   "// guarded by mu" fields accessed only under the mutex
//
// Each is here because a bug seeded into product code turned it, and
// no other gate, red; the table is in docs/static-analysis.md. The
// output form, file:line:col: analyzer: message, is the one the GitHub
// problem matcher committed under .github/ parses.
//
// netfail-lint is self-contained: it loads and type-checks packages
// via `go list -export` export data, so it needs no network access
// and no dependencies beyond the Go toolchain.
package main

import (
	"flag"
	"fmt"
	"os"

	"netfail/internal/lint"
	"netfail/internal/lint/detclock"
	"netfail/internal/lint/droppederr"
	"netfail/internal/lint/lockguard"
)

// Suite is the full analyzer set, in the order findings are
// attributed.
var suite = []*lint.Analyzer{
	detclock.Analyzer,
	droppederr.Analyzer,
	lockguard.Analyzer,
}

func main() {
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fatal(err)
	}
	findings, err := lint.Run(pkgs, suite)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "netfail-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netfail-lint:", err)
	os.Exit(2)
}
