package netfail

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"netfail/internal/report"
)

// seed1Study runs the 13-month seed-1 study once per test binary: the
// golden tests below, the table benchmarks and the alloc pins read the
// same study, so tier-1 pays for one simulation, not one per artifact.
var seed1Study = sync.OnceValues(func() (*Study, error) {
	return Run(context.Background(), SimulationConfig{Seed: 1})
})

// TestSeed1ReportGolden holds the full 13-month report for seed 1 to
// docs/report-seed1.txt, byte for byte: the file README and
// EXPERIMENTS.md call the canonical output is one a test reads. After
// a change that is meant to move the report, `make golden` rewrites it.
func TestSeed1ReportGolden(t *testing.T) {
	study, err := seed1Study()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := study.Report(&got); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "docs/report-seed1.txt", got.Bytes())
}

// TestSeed1MarkdownGolden holds docs/reproduction-seed1.md to what
// `netfail-analyze -seed 1 -markdown` prints, byte for byte, the same
// way.
func TestSeed1MarkdownGolden(t *testing.T) {
	study, err := seed1Study()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := study.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.Markdown(&got, tables); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "docs/reproduction-seed1.md", got.Bytes())
}

// assertGolden fails the test at the first line where got differs
// from the file at path.
func assertGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLines(t, path, got, want)
}

// assertSameLines fails the test at the first line where got differs
// from want, which what names.
func assertSameLines(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("output differs from %s at line %d:\n got  %q\n want %q", what, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output is %d lines, %s %d", len(gotLines), what, len(wantLines))
}
