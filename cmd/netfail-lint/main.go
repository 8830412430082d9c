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
//	durmul      no duration×duration, no unit-less duration constants
//	ctxfirst    context.Context first in signatures, never in structs
//	goleak      goroutines must have exit paths and cancellation-guarded sends
//
// -json emits findings as one JSON object per line
// ({"file","line","col","analyzer","message"}) for editor and CI
// integration; the default text form matches the GitHub problem
// matcher committed under .github/.
//
// netfail-lint is self-contained: it loads and type-checks packages
// via `go list -export` export data, so it needs no network access
// and no dependencies beyond the Go toolchain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"netfail/internal/lint"
	"netfail/internal/lint/ctxfirst"
	"netfail/internal/lint/detclock"
	"netfail/internal/lint/droppederr"
	"netfail/internal/lint/durmul"
	"netfail/internal/lint/goleak"
	"netfail/internal/lint/lockguard"
)

// Suite is the full analyzer set, in the order findings are
// attributed.
var suite = []*lint.Analyzer{
	detclock.Analyzer,
	droppederr.Analyzer,
	lockguard.Analyzer,
	durmul.Analyzer,
	ctxfirst.Analyzer,
	goleak.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line")
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
		if *jsonOut {
			printJSON(f)
		} else {
			fmt.Println(f)
		}
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

// jsonFinding is the -json wire form, one object per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(f lint.Finding) {
	out, err := json.Marshal(jsonFinding{
		File:     f.Pos.Filename,
		Line:     f.Pos.Line,
		Col:      f.Pos.Column,
		Analyzer: f.Analyzer,
		Message:  f.Message,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}
