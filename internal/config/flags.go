package config

import "flag"

// This file is the shared CLI flag vocabulary: every netfail binary
// registers its common knobs through these helpers so the spelling,
// default, and help text of -parallelism, -debug-addr, -json and
// -trace never drift between commands. (It lives in the config
// package because that is the one internal package every binary
// already imports.)

// ParallelismFlag registers -parallelism: the analysis/simulation
// worker pool bound. 0 means one worker per CPU; 1 forces the
// sequential reference path. Every setting produces byte-identical
// output.
func ParallelismFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallelism", 0,
		"worker pool size: 0 = one worker per CPU, 1 = sequential; output is byte-identical either way")
}

// DebugAddrFlag registers -debug-addr: the HTTP address serving the
// versioned /api/v1 surface (query endpoints, metrics, health) plus
// /debug/pprof.
func DebugAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "",
		"serve the /api/v1 HTTP surface (metrics, health, store queries) and /debug/pprof on this address")
}

// JSONFlag registers -json: machine-readable output instead of the
// rendered text form.
func JSONFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "emit JSON instead of rendered text")
}

// TraceFlag registers -trace: print the stage/worker span tree to
// stderr after the run.
func TraceFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("trace", false, "print the stage/worker span tree to stderr after the run")
}

// TraceJSONFlag registers -trace-json: write the span tree as Chrome
// trace_event JSON.
func TraceJSONFlag(fs *flag.FlagSet) *string {
	return fs.String("trace-json", "", "write the span tree as Chrome trace_event JSON to this file")
}

// MetricsFlag registers -metrics: print pipeline counters to stderr
// after the run.
func MetricsFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("metrics", false, "print pipeline counters to stderr after the run")
}

// ProgressFlag registers -progress: stream stage/shard progress
// events to stderr.
func ProgressFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("progress", false, "stream stage/shard progress events to stderr")
}
