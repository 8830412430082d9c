package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// samples gathers one metric's value from every run of a workload in
// a set, one value per run.
func (f *resultFile) samples(workload, metric string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Results {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (f *resultFile) has(traced bool) bool {
	for _, r := range f.Results {
		if r.Traced == traced {
			return true
		}
	}
	return false
}

// printSummary prints one row per workload and metric: the median
// over the set's runs, the quartiles and the spread that the metric's
// bound is judged against.
func (f *resultFile) printSummary(w io.Writer) {
	e := f.Env
	fmt.Fprintf(w, "\n== summary: %d run(s) per workload from seed %d, %gs each; %s GOMAXPROCS=%d nproc=%d commit %s; total wall %.0fs\n",
		f.Runs, f.Seed, f.Seconds, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Commit, f.TotalWallS)
	failed := 0
	for _, r := range f.Results {
		failed += r.Failed
	}
	fmt.Fprintf(w, "   ops_failed over all runs: %d\n", failed)
	for _, traced := range []bool{false, true} {
		if !f.has(traced) {
			continue
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		fmt.Fprintf(w, "   %-14s %-26s %-6s %14s %14s %14s %8s %6s\n",
			"workload", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, wl := range workloads {
			for _, d := range defs {
				xs := f.samples(wl.name, d.Name, traced)
				if len(xs) == 0 || (traced && median(xs) == 0) {
					continue
				}
				q1, q3 := quartiles(xs)
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				}
				fmt.Fprintf(w, "   %-14s %-26s %-6s %14.4f %14s %14s %8s %6s\n",
					wl.name, d.Name, d.Unit, median(xs), num(q1), num(q3), pct(spread(xs)), bound)
			}
		}
	}
	for _, v := range repeatViolations(f) {
		fmt.Fprintln(w, "   BENCHMARK ERROR:", v)
	}
}

func num(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.4f", x)
}

func pct(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", x*100)
}

// verdict judges side B against side A for one end-to-end metric.
//
//	unresolved  a side's spread is wider than the bound and the two
//	            sides' runs interleave: the benchmark cannot tell
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better than A's by more than the bound
//	same        otherwise
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 || math.IsNaN(ma) || math.IsNaN(mb) {
		return "unresolved"
	}
	worsening := (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worsening = -worsening
	}
	wide := func(xs []float64) bool { s := spread(xs); return !math.IsNaN(s) && s > d.Bound }
	sa, sb := sorted(a), sorted(b)
	interleave := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	switch {
	case (wide(a) || wide(b)) && interleave:
		return "unresolved"
	case worsening > d.Bound:
		return "worse"
	case worsening < -d.Bound:
		return "better"
	default:
		return "same"
	}
}

// compareSets prints B against A, one row per workload and metric,
// and returns how many end-to-end rows got each verdict.
func compareSets(w io.Writer, a, b *resultFile) map[string]int {
	verdicts := map[string]int{}
	fmt.Fprintf(w, "A: commit %s, %s, GOMAXPROCS=%d, %d run(s) from seed %d\n", a.Env.Commit, a.Env.GoVersion, a.Env.GOMAXPROCS, a.Runs, a.Seed)
	fmt.Fprintf(w, "B: commit %s, %s, GOMAXPROCS=%d, %d run(s) from seed %d\n", b.Env.Commit, b.Env.GoVersion, b.Env.GOMAXPROCS, b.Runs, b.Seed)
	row := "%-14s %-26s %-6s %12s %-25s %12s %-25s %8s %6s  %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "bound", "verdict")
	iqr := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return num(q1) + ".." + num(q3)
	}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, wl := range workloads {
			for _, d := range defs {
				xa, xb := a.samples(wl.name, d.Name, traced), b.samples(wl.name, d.Name, traced)
				if len(xa) == 0 || len(xb) == 0 || (median(xa) == 0 && median(xb) == 0) {
					continue
				}
				v, bound := "", ""
				switch {
				case d.Bound > 0:
					v, bound = verdict(d, xa, xb), fmt.Sprintf("%.0f%%", d.Bound*100)
					verdicts[v]++
				case d.Exact && median(xa) != median(xb):
					v = "count changed"
				}
				fmt.Fprintf(w, row, wl.name, d.Name, d.Unit, num(median(xa)), iqr(xa), num(median(xb)), iqr(xb),
					pct((median(xb)-median(xa))/math.Abs(median(xa))), bound, v)
			}
		}
	}
	return verdicts
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	v := compareSets(w, a, b)
	fmt.Fprintf(w, "end-to-end rows: %d better, %d worse, %d unresolved, %d same\n",
		v["better"], v["worse"], v["unresolved"], v["same"])
	return nil
}

// allocTolerance is how far a malloc count may drift between runs of
// one build on one seed: the runtime's own background allocations.
const allocTolerance = 0.001

// repeatViolations checks the counts that must repeat for a seed:
// exact ones exactly, malloc counts within allocTolerance. A
// violation is an error in the benchmark or the program, not noise.
func repeatViolations(sets ...*resultFile) []string {
	type key struct {
		workload, metric string
		seed             int64
	}
	seen := map[key][]float64{}
	for _, f := range sets {
		for _, r := range f.Results {
			if !r.Traced {
				continue
			}
			for name, m := range r.Metrics {
				if d, _ := findMetric(name); d.Exact || d.Allocs {
					k := key{r.Workload, name, r.Seed}
					seen[k] = append(seen[k], m.Value)
				}
			}
		}
	}
	var out []string
	for k, xs := range seen {
		s := sorted(xs)
		lo, hi := s[0], s[len(s)-1]
		d, _ := findMetric(k.metric)
		switch {
		case d.Exact && lo != hi:
			out = append(out, fmt.Sprintf("%s %s seed %d: count does not repeat: %.0f .. %.0f", k.workload, k.metric, k.seed, lo, hi))
		case d.Allocs && hi-lo > allocTolerance*hi:
			out = append(out, fmt.Sprintf("%s %s seed %d: mallocs drift more than %.1f%%: %.0f .. %.0f", k.workload, k.metric, k.seed, allocTolerance*100, lo, hi))
		}
	}
	sort.Strings(out)
	return out
}

// selfcheck runs two full sets of this build, end to end and traced,
// and fails if the benchmark disagrees with itself.
func selfcheck(ctx context.Context, f *flags) error {
	var sets [2]*resultFile
	for i := range sets {
		untraced, err := runSet(ctx, f, false)
		if err != nil {
			return err
		}
		traced, err := runSet(ctx, f, true)
		if err != nil {
			return err
		}
		untraced.Results = append(untraced.Results, traced.Results...)
		untraced.TotalWallS += traced.TotalWallS
		sets[i] = untraced
	}
	out := os.Stdout
	v := compareSets(out, sets[0], sets[1])
	violations := repeatViolations(sets[0], sets[1])
	for _, v := range violations {
		fmt.Fprintln(out, "BENCHMARK ERROR:", v)
	}
	failed := 0
	for _, s := range sets {
		for _, r := range s.Results {
			failed += r.Failed
		}
	}
	if f.out != "" {
		if err := sets[1].write(f.out); err != nil {
			return err
		}
	}
	var problems []string
	if n := v["worse"] + v["better"]; n > 0 {
		problems = append(problems, fmt.Sprintf("%d end-to-end metric(s) differ between two sets of one build by more than their bound", n))
	}
	if n := v["unresolved"]; n > 0 {
		problems = append(problems, fmt.Sprintf("%d end-to-end metric(s) spread wider than their bound", n))
	}
	if len(violations) > 0 {
		problems = append(problems, fmt.Sprintf("%d count(s) do not repeat", len(violations)))
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d operation(s) failed", failed))
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck: %s", strings.Join(problems, "; "))
	}
	fmt.Fprintln(out, "selfcheck: the two sets agree within every bound")
	return nil
}
