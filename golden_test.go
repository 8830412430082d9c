package netfail

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestSeed1ReportGolden holds the full 13-month report for seed 1 to
// docs/report-seed1.txt, byte for byte: the file README and
// EXPERIMENTS.md call the canonical output is one a test reads. After
// a change that is meant to move the report, `make golden` rewrites it.
func TestSeed1ReportGolden(t *testing.T) {
	study, err := Run(context.Background(), SimulationConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := study.Report(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("docs/report-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("report differs from docs/report-seed1.txt at line %d:\n got  %q\n want %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("report is %d lines, docs/report-seed1.txt %d", len(gotLines), len(wantLines))
}
