//go:build race

package netsim

// raceEnabled reports whether the race detector is instrumenting this
// test binary; its instrumentation adds allocations an allocation
// budget must not count.
const raceEnabled = true
