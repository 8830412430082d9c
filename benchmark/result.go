package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported figure. Summary, when present, is the
// in-run sample the value was taken from.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	// Errors holds the first few failed operations' reasons.
	Errors []string `json:"errors,omitempty"`
	// Metrics is the contract set: every end-to-end metric for an
	// untraced run, every per-layer metric for a traced one.
	Metrics map[string]metricValue `json:"metrics"`
	// Details are the workload's own named figures behind the
	// generic end-to-end metrics (study_s, query_scan_p50_ms, …).
	Details map[string]metricValue `json:"details,omitempty"`
	WallS   float64                `json:"wall_s"`
}

const maxErrors = 8

// fail records one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// set stores a contract metric, taking the unit from the catalogue.
func (r *runResult) set(name string, v float64) {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric not in the catalogue: " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// setSample stores a contract metric as the median of an in-run
// sample, keeping the sample's summary beside it.
func (r *runResult) setSample(name string, xs []float64) {
	if len(xs) == 0 {
		r.set(name, 0)
		return
	}
	r.set(name, median(xs))
	mv := r.Metrics[name]
	s := summarize(xs)
	mv.Summary = &s
	r.Metrics[name] = mv
}

// detail stores a workload-specific figure.
func (r *runResult) detail(name, unit string, v float64, xs []float64) {
	mv := metricValue{Value: v, Unit: unit}
	if len(xs) > 0 {
		s := summarize(xs)
		mv.Summary = &s
	}
	r.Details[name] = mv
}

func newRunResult(workload string, seed int64, traced bool) *runResult {
	r := &runResult{
		Workload: workload, Seed: seed, Traced: traced,
		Metrics: map[string]metricValue{},
		Details: map[string]metricValue{},
	}
	if traced {
		// A layer the workload never calls did no work: it reads 0.
		for _, d := range perLayer {
			r.set(d.Name, 0)
		}
	}
	return r
}

// medianResult folds repetitions of one run into one result: every
// metric's median, the operations and failures of all.
func medianResult(all []*runResult) *runResult {
	if len(all) == 1 {
		return all[0]
	}
	out := newRunResult(all[0].Workload, all[0].Seed, all[0].Traced)
	for name, first := range all[0].Metrics {
		xs := make([]float64, len(all))
		for i, r := range all {
			xs[i] = r.Metrics[name].Value
		}
		s := summarize(xs)
		out.Metrics[name] = metricValue{Value: s.Median, Unit: first.Unit, Summary: &s}
	}
	for _, r := range all {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Errors = append(out.Errors, r.Errors...)
	}
	out.Errors = out.Errors[:min(len(out.Errors), maxErrors)]
	return out
}

// contractLine renders the one-line JSON object the driver reads from
// the end of standard output.
func (r *runResult) contractLine() string {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metricValue{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit} // no summary: exactly value and unit
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// print writes the run's human-readable table.
func (r *runResult) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  wall %.1fs  ops_attempted %d  ops_failed %d\n",
		r.Workload, r.Seed, mode, r.WallS, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	printMetrics(w, r.Metrics, r.Traced)
	if len(r.Details) > 0 {
		fmt.Fprintln(w, "   -- this workload's own figures behind them:")
		printMetrics(w, r.Details, false)
	}
}

func printMetrics(w io.Writer, ms map[string]metricValue, hideZero bool) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		if hideZero && m.Value == 0 {
			continue
		}
		line := fmt.Sprintf("   %-26s %14.4f %-6s", n, m.Value, m.Unit)
		if s := m.Summary; s != nil {
			line += fmt.Sprintf("  n=%d min %.4g q1 %.4g med %.4g q3 %.4g max %.4g",
				s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// envInfo records where a result was taken.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	e := envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: benchProcs, // what the workloads run at, whatever this process started with
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// resultFile is what -out writes and -compare reads: one set of runs.
type resultFile struct {
	Env        envInfo     `json:"env"`
	Seed       int64       `json:"seed"`
	Runs       int         `json:"runs"`
	Seconds    float64     `json:"seconds"`
	Quick      bool        `json:"quick"`
	Results    []runResult `json:"results"`
	TotalWallS float64     `json:"total_wall_s"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
