package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestQuickSmoke runs every workload end to end and traced at -quick
// sizes and checks that each emits exactly the metrics the catalogue
// names, each once, with its unit, and that no operation failed.
func TestQuickSmoke(t *testing.T) {
	// What each workload's traced run must measure itself (the rest of
	// the per-layer catalogue reads 0 there).
	measured := map[string][]string{
		"study-1x": {"netsim.run_s", "netsim.allocs", "netsim.events", "config.mine_s", "listener.replay_s",
			"listener.lsps", "listener.us_per_lsp", "listener.allocs", "core.extract_s", "core.extract_msgs",
			"core.extract_allocs", "core.analyze_s", "core.analyze_allocs", "core.table2_s", "core.table3_s",
			"core.table4_s", "core.table5_s", "core.table6_s", "core.table7_s", "core.figure1_s", "core.knee_s",
			"core.policy_s", "stats.bootstrap_s", "topo.isolated_us", "report.full_s", "store.write_s",
			"store.bytes", "store.build_s", "driver.sum_s", "driver.e2e_seq_s", "driver.coverage"},
		"fabric-3x": {"netsim.spill_s", "config.load_s", "listener.replay_s", "listener.lsps", "listener.us_per_lsp",
			"listener.allocs", "core.extract_s", "core.extract_msgs", "core.extract_allocs", "core.analyze_s",
			"core.analyze_allocs", "core.table2_s", "core.table3_s", "core.table4_s", "core.table5_s",
			"core.table6_s", "core.figure1_s", "core.knee_s", "core.policy_s", "core.isolation_4k_s",
			"topo.isolated_us", "capture.read_syslog_s", "capture.read_lsp_s", "capture.read_mb_per_s",
			"capture.records", "capture.bytes", "syslog.parse_s", "syslog.parse_allocs", "driver.sum_s",
			"driver.e2e_seq_s", "driver.coverage"},
		"query-mix": {"store.open_s", "store.point_p50_ms", "store.host_p50_ms", "store.flaps_p50_ms",
			"store.scan_p50_ms", "api.point_p50_ms", "api.host_p50_ms", "api.flaps_p50_ms", "api.scan_p50_ms",
			"api.scan_mb", "api.overhead_point_ms", "driver.sum_s", "driver.e2e_seq_s", "driver.coverage"},
		"ingest-replay": {"syslog.readlog_s", "netsim.readlsp_s", "config.load_s", "checkpoint.append_s",
			"checkpoint.appends_per_s", "checkpoint.snapshot_s", "checkpoint.recover_s", "checkpoint.bytes",
			"serve.pipeline_s", "serve.records_per_s", "core.analyze_s", "report.full_s", "driver.sum_s",
			"driver.e2e_seq_s", "driver.coverage"},
	}
	// The workload's own figures an end-to-end run prints beside the
	// generic metrics.
	details := map[string][]string{
		"study-1x":      {"study_s", "analyze_store_s"},
		"fabric-3x":     {"fabric_analyze_s"},
		"query-mix":     {"query_point_p50_ms", "query_scan_p50_ms", "query_ops_per_s"},
		"ingest-replay": {"ingest_records_per_s"},
	}

	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			f := &flags{seed: 1, seconds: 0, quick: true, trace: trace}
			res, rec, err := execute(context.Background(), w, f, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d, failed %d: %v", w.name, trace, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			checkContract(t, w.name, res, defs)
			if trace == 0 {
				for _, d := range defs {
					if v := res.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, v)
					}
				}
				for _, name := range details[w.name] {
					if _, ok := res.Details[name]; !ok {
						t.Errorf("%s: figure %s not reported", w.name, name)
					}
				}
				continue
			}
			for _, name := range measured[w.name] {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s: per-layer metric %s was not measured", w.name, name)
				}
			}
			if len(rec.spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.name)
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := rec.write(path); err != nil {
				t.Fatal(err)
			}
			var doc struct{ Spans []span }
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != len(rec.spans) {
				t.Errorf("%s: span file does not read back: %v", w.name, err)
			}
			for _, s := range doc.Spans {
				if s.Name == "" || s.EndNs < s.StartNs || s.Parent >= s.ID {
					t.Errorf("%s: malformed span %+v", w.name, s)
				}
			}
		}
	}
}

// checkContract decodes the driver's line and checks it holds exactly
// the four keys and exactly the catalogue's metrics, each with exactly
// a value and the catalogue's unit.
func checkContract(t *testing.T, workload string, res *runResult, defs []metricDef) {
	t.Helper()
	line := res.contractLine()
	if strings.Contains(line, "\n") {
		t.Errorf("%s: the result is not one line", workload)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if got := keys(top); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: result keys %v", workload, got)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, the catalogue has %d", workload, len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if len(m) != 2 || m["unit"] != d.Unit {
			t.Errorf("%s: metric %s reported as %v, want a value and unit %q", workload, d.Name, m, d.Unit)
		}
		if v, ok := m["value"].(float64); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s has value %v", workload, d.Name, m["value"])
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the catalogue and
// the workload list compiled into the benchmark.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the -seconds default is %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the benchmark has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the catalogue has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: %+v, the catalogue has %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestMedianAndSummary(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	s := summarize([]float64{9, 1, 5, 3, 7})
	if want := (summary{N: 5, Min: 1, Q1: 3, Median: 5, Q3: 7, Max: 9}); s != want {
		t.Errorf("summary = %+v, want %+v", s, want)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, since that is what the
// acceptance spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one value should be NaN")
	}
}

// TestPercentileNeedsSamplesBeyond pins the rule that a percentile is
// reported only with at least ten samples beyond it.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples has only nine beyond it and must not be reported")
	}
	if _, ok := percentile(xs, 99.9); ok {
		t.Error("p99.9 of 1000 samples has one beyond it and must not be reported")
	}
	if p, v, ok := highestPercentile(xs[:200]); !ok || p != 95 || v != 190 {
		t.Errorf("highest percentile of 200 samples = p%v %v %v, want p95 = 190", p, v, ok)
	}
	if _, _, ok := highestPercentile(xs[:50]); ok {
		t.Error("fifty samples support no percentile above the median")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "unit_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 0.995, c * 1.005} }
	noisy := []float64{60, 80, 100, 120, 140}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, tight(100), tight(103), "same"},
		{lower, tight(100), tight(120), "worse"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, noisy, tight(105), "unresolved"},
		// Wide, but every run of B is beyond every run of A.
		{lower, noisy, tight(200), "worse"},
		{lower, []float64{100}, []float64{104}, "same"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestRepeatViolations(t *testing.T) {
	run := func(events, allocs float64) runResult {
		return runResult{Workload: "study-1x", Seed: 1, Traced: true, Metrics: map[string]metricValue{
			"netsim.events": {Value: events, Unit: "count"},
			"netsim.allocs": {Value: allocs, Unit: "count"},
			"netsim.run_s":  {Value: events / 1e5, Unit: "s"},
		}}
	}
	ok := &resultFile{Results: []runResult{run(69447, 1213512), run(69447, 1213467)}}
	if v := repeatViolations(ok); len(v) != 0 {
		t.Errorf("a repeating count and mallocs within 0.1%% were reported: %v", v)
	}
	bad := &resultFile{Results: []runResult{run(69447, 1213512), run(69448, 1220000)}}
	if v := repeatViolations(bad); len(v) != 2 {
		t.Errorf("want a count and a malloc violation, got %v", v)
	}
	otherSeed := run(70000, 1300000)
	otherSeed.Seed = 2
	if v := repeatViolations(&resultFile{Results: []runResult{run(69447, 1213512), otherSeed}}); len(v) != 0 {
		t.Errorf("different seeds may differ: %v", v)
	}
}

// TestSpeedometer pins the scale of the host-speed readings and that
// a bracket is recorded and its cost counted.
func TestSpeedometer(t *testing.T) {
	if got := speedOver(refNominalS, refNominalS); got != 1 {
		t.Errorf("speed at the nominal reading = %v, want 1", got)
	}
	if got := speedOver(2*refNominalS, 2*refNominalS); got != 0.5 {
		t.Errorf("speed with the kernel half as fast = %v, want 0.5", got)
	}
	s := newSpeedometer()
	s.mark()
	speed := s.lap()
	if !(speed > 0) || len(s.speeds) != 1 || s.speeds[0] != speed {
		t.Errorf("lap returned %v and recorded %v", speed, s.speeds)
	}
	// Two readings; allow a machine ten times slower or faster than nominal.
	if s.spentS < 2*refNominalS/10 || s.spentS > 2*refNominalS*10 {
		t.Errorf("two readings took %v s, nominal is %v s each", s.spentS, refNominalS)
	}
}

func TestDeclaredCount(t *testing.T) {
	for body, want := range map[string]int{
		"{\n  \"count\": 12,\n  \"failures\": []}": 12,
		`{"count":0,"episodes":[]}`:                0,
		`{"count":7}`:                              7,
	} {
		if got, err := declaredCount([]byte(body)); err != nil || got != want {
			t.Errorf("declaredCount(%q) = %d, %v; want %d", body, got, err, want)
		}
	}
	if _, err := declaredCount([]byte(`{"error":{"code":"bad_param"}}`)); err == nil {
		t.Error("an error envelope has no count")
	}
}
