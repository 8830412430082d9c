package netfail

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"netfail/internal/report"
	"netfail/internal/stats"
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

// TestScorecardRows: every scorecard row has an ID of its own, and its
// extractor reads a finite value off the seed-1 study's tables.
func TestScorecardRows(t *testing.T) {
	study, err := seed1Study()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := study.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, s := range report.Scorecard {
		for _, r := range s.Rows {
			if ids[r.ID] {
				t.Errorf("row ID %s is used twice", r.ID)
			}
			ids[r.ID] = true
			if v := r.Of(tables); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("row %s (%s) reads %v on seed 1", r.ID, r.Name, v)
			}
		}
	}
}

// panelSeeds are the seeds of the reproduction panel EXPERIMENTS.md
// reports, each a full-length study.
const panelSeeds = 10

// TestExperimentsGolden holds EXPERIMENTS.md's numeric tables to the
// scorecard over the panel, byte for byte: each block between
// `<!-- scorecard ID -->` and `<!-- /scorecard -->` is scorecard
// section ID over seeds 1–10 (panelTable). Each seed's study is run in
// RAM, folded in and dropped, so the panel holds about two studies. With NETFAIL_GOLDEN=update (`make golden`) it rewrites
// the blocks instead; the prose around them is the file's own.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs ten 13-month studies")
	}
	ctx := context.Background()
	panel := map[string][]float64{} // row ID → value per seed, seed 1 first
	for seed := int64(1); seed <= panelSeeds; seed++ {
		study, err := seed1Study()
		if seed > 1 {
			study, err = Run(ctx, SimulationConfig{Seed: seed})
		}
		if err != nil {
			t.Fatal(err)
		}
		tables, err := study.Tables(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range report.Scorecard {
			for _, r := range s.Rows {
				panel[r.ID] = append(panel[r.ID], r.Of(tables))
			}
		}
	}
	// The markers open their lines, so prose can quote them.
	const path, open, closing = "EXPERIMENTS.md", "\n<!-- scorecard ", "\n<!-- /scorecard -->"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	rest, seen := doc, map[string]bool{}
	for {
		i := bytes.Index(rest, []byte(open))
		if i < 0 {
			break
		}
		n := bytes.Index(rest[i:], []byte(" -->"))
		end := bytes.Index(rest[i:], []byte(closing))
		if n < 0 || end < n {
			t.Fatalf("%s: a scorecard block is not closed", path)
		}
		id := string(rest[i+len(open) : i+n])
		k := slices.IndexFunc(report.Scorecard, func(s report.Section) bool { return s.ID == id })
		if k < 0 || seen[id] {
			t.Fatalf("%s: block %q names no scorecard section or repeats one", path, id)
		}
		seen[id] = true
		got.Write(rest[:i+n+len(" -->")])
		got.WriteString("\n\n")
		got.Write(panelTable(t, &report.Scorecard[k], panel))
		got.WriteByte('\n')
		rest = rest[i+end+1:]
	}
	got.Write(rest)
	if len(seen) != len(report.Scorecard) {
		t.Errorf("%s has blocks for %d of the %d scorecard sections", path, len(seen), len(report.Scorecard))
	}
	if os.Getenv("NETFAIL_GOLDEN") == "update" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	assertSameLines(t, path, got.Bytes(), doc)
}

// panelTable renders section s over the panel: per row the paper, seed
// 1, the panel median and its 95% bootstrap CI, and the rule applied
// to the median beside the number of seeds on which the rule holds.
func panelTable(t *testing.T, s *report.Section, panel map[string][]float64) []byte {
	b := []byte("| Claim | Paper | Seed 1 | Panel median | 95% CI | Verdict |\n|---|---|---|---|---|---|\n")
	for i := range s.Rows {
		r := &s.Rows[i]
		vals := panel[r.ID]
		sum, err := stats.Summarize(vals)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := stats.BootstrapMedianCI(vals, 0, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, v := range vals {
			if r.Rule.Verdict(v, r.Paper) == report.Holds {
				held++
			}
		}
		b = r.Unit.Append(append(r.AppendPaper(append(b, "| "+r.Name+" | "...)), " | "...), vals[0])
		b = r.Unit.Append(append(b, " | "...), sum.Median)
		b = r.Unit.Append(append(r.Unit.Append(append(b, " | ["...), lo), ", "...), hi)
		b = fmt.Appendf(b, "] | %s %d/%d |\n", r.Rule.Verdict(sum.Median, r.Paper), held, len(vals))
	}
	return b
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
