// Package pool provides the bounded worker pool behind the parallel
// analysis pipeline. The two sources' pipelines are independent until
// they are compared, the report's tables are independent reductions,
// and a fabric's topology domains simulate independently — so every
// fan-out reduces to the same shape: run fn(i) for i in [0, n) across
// at most `workers` goroutines, with each task writing only state owned
// by its index. Determinism is preserved by construction: tasks never
// share mutable state, and callers read the indexed results in a fixed
// order afterwards.
package pool

import "runtime"

// Resolve maps a Parallelism knob to a worker count: values <= 0 mean
// "one worker per available CPU" (runtime.GOMAXPROCS).
func Resolve(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
