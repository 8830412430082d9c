package pool

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"netfail/internal/obs"
)

// ForEachCtx runs fn(ctx, i) for every i in [0, n) using at most
// workers goroutines and returns the context's error if ctx is
// canceled before all tasks have been dispatched. fn must confine its
// output writes to state owned by index i. Tasks already running when
// cancellation hits are allowed to finish — fn is never interrupted
// mid-index — so a non-nil return means "some suffix of [0, n) never
// ran", never "a task half-ran".
//
// With workers <= 1 (or n <= 1) it degenerates to a sequential loop on
// the calling goroutine that checks ctx between iterations: the
// byte-identical reference path. When a tracer is attached to ctx and
// the pool actually fans out, each worker goroutine runs under its own
// "worker[w]" child span; per-task completion is reported as ShardDone
// progress events and counted in the pool.tasks.ran counter.
func ForEachCtx(ctx context.Context, n, workers int, fn func(ctx context.Context, i int)) error {
	if workers > n {
		workers = n
	}
	obs.Add(ctx, "pool.tasks.queued", int64(n))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(ctx, i)
			obs.Add(ctx, "pool.tasks.ran", 1)
			obs.Shard(ctx, i+1, n)
		}
		return nil
	}
	tasks := make(chan int)
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			wctx, span := obs.StartSpan(ctx, "worker["+strconv.Itoa(w)+"]")
			defer span.End()
			for i := range tasks {
				fn(wctx, i)
				span.Add("tasks", 1)
				obs.Shard(ctx, int(ran.Add(1)), n)
			}
		}(w)
	}
	err := error(nil)
	for i := 0; i < n; i++ {
		select {
		case tasks <- i:
		case <-ctx.Done():
			err = ctx.Err()
			i = n // stop dispatching; workers drain and exit
		}
	}
	close(tasks)
	wg.Wait()
	obs.Add(ctx, "pool.tasks.ran", ran.Load())
	return err
}

// StagesCtx runs a set of independent pipeline stages concurrently
// across at most workers goroutines, stopping dispatch if ctx is
// canceled. It is ForEachCtx specialized to heterogeneous closures.
func StagesCtx(ctx context.Context, workers int, stages ...func(ctx context.Context)) error {
	return ForEachCtx(ctx, len(stages), workers, func(ctx context.Context, i int) { stages[i](ctx) })
}
