package main

// The metric catalogue. BENCHMARK.json at the repository root carries
// the same names, units, directions and bounds for the driver; the
// package test fails when the two disagree.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which an
	// end-to-end metric may get worse before it counts as a
	// regression. Per-layer metrics have none.
	Bound float64
	// Exact marks a count that must repeat exactly for a seed;
	// Allocs marks a malloc count that must repeat within 0.1 %.
	Exact  bool
	Allocs bool
}

// The end-to-end metrics. Every workload reports every one of them;
// what each measures on each workload is the table in README.md.
var endToEnd = []metricDef{
	{Name: "unit_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// The per-layer metrics, layer = package name. A traced run reports
// every one; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "netsim.run_s", Unit: "s"},
	{Name: "netsim.allocs", Unit: "count", Allocs: true},
	{Name: "netsim.events", Unit: "count", Exact: true},
	{Name: "netsim.spill_s", Unit: "s"},
	{Name: "netsim.readlsp_s", Unit: "s"},
	{Name: "config.mine_s", Unit: "s"},
	{Name: "config.load_s", Unit: "s"},
	{Name: "listener.replay_s", Unit: "s"},
	{Name: "listener.lsps", Unit: "count", Exact: true},
	{Name: "listener.us_per_lsp", Unit: "us"},
	{Name: "listener.allocs", Unit: "count", Allocs: true},
	{Name: "core.extract_s", Unit: "s"},
	{Name: "core.extract_msgs", Unit: "count", Exact: true},
	{Name: "core.extract_allocs", Unit: "count", Allocs: true},
	{Name: "core.analyze_s", Unit: "s"},
	{Name: "core.analyze_allocs", Unit: "count", Allocs: true},
	{Name: "core.table2_s", Unit: "s"},
	{Name: "core.table3_s", Unit: "s"},
	{Name: "core.table4_s", Unit: "s"},
	{Name: "core.table5_s", Unit: "s"},
	{Name: "core.table6_s", Unit: "s"},
	{Name: "core.table7_s", Unit: "s"},
	{Name: "core.figure1_s", Unit: "s"},
	{Name: "core.knee_s", Unit: "s"},
	{Name: "core.policy_s", Unit: "s"},
	{Name: "core.isolation_4k_s", Unit: "s"},
	{Name: "stats.bootstrap_s", Unit: "s"},
	{Name: "topo.isolated_us", Unit: "us"},
	{Name: "report.full_s", Unit: "s"},
	{Name: "report.render_self_s", Unit: "s"},
	{Name: "capture.read_syslog_s", Unit: "s"},
	{Name: "capture.read_lsp_s", Unit: "s"},
	{Name: "capture.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "capture.records", Unit: "count", Exact: true},
	{Name: "capture.bytes", Unit: "bytes", Exact: true},
	{Name: "syslog.parse_s", Unit: "s"},
	{Name: "syslog.parse_allocs", Unit: "count", Allocs: true},
	{Name: "syslog.readlog_s", Unit: "s"},
	{Name: "store.write_s", Unit: "s"},
	{Name: "store.bytes", Unit: "bytes", Exact: true},
	{Name: "store.build_s", Unit: "s"},
	{Name: "store.open_s", Unit: "s"},
	{Name: "store.point_p50_ms", Unit: "ms"},
	{Name: "store.host_p50_ms", Unit: "ms"},
	{Name: "store.flaps_p50_ms", Unit: "ms"},
	{Name: "store.scan_p50_ms", Unit: "ms"},
	{Name: "api.point_p50_ms", Unit: "ms"},
	{Name: "api.point_p99_ms", Unit: "ms"},
	{Name: "api.host_p50_ms", Unit: "ms"},
	{Name: "api.flaps_p50_ms", Unit: "ms"},
	{Name: "api.scan_p50_ms", Unit: "ms"},
	{Name: "api.scan_mb", Unit: "MB"},
	{Name: "api.overhead_point_ms", Unit: "ms"},
	{Name: "checkpoint.append_s", Unit: "s"},
	{Name: "checkpoint.appends_per_s", Unit: "1/s", Better: "higher"},
	{Name: "checkpoint.snapshot_s", Unit: "s"},
	{Name: "checkpoint.recover_s", Unit: "s"},
	{Name: "checkpoint.bytes", Unit: "bytes", Exact: true},
	{Name: "serve.pipeline_s", Unit: "s"},
	{Name: "serve.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "driver.sum_s", Unit: "s"},
	{Name: "driver.e2e_seq_s", Unit: "s"},
	{Name: "driver.coverage", Unit: "ratio"},
}

func init() {
	for i := range perLayer {
		if perLayer[i].Better == "" {
			perLayer[i].Better = "lower"
		}
	}
}

// findMetric looks a metric up in either catalogue.
func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
