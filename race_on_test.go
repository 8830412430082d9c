//go:build race

package netfail

// raceEnabled reports whether the race detector is instrumenting this
// test binary; its instrumentation adds allocations of its own.
const raceEnabled = true
