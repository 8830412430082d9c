package pool

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d, want 7", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		const n = 57
		counts := make([]int32, n)
		err := ForEachCtx(context.Background(), n, workers, func(_ context.Context, i int) { atomic.AddInt32(&counts[i], 1) })
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want once", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ran := false
	if err := ForEachCtx(context.Background(), 0, 8, func(context.Context, int) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("ForEachCtx(0, ...) invoked fn")
	}
}

func TestStages(t *testing.T) {
	var a, b, c int
	err := StagesCtx(context.Background(), 4,
		func(context.Context) { a = 1 },
		func(context.Context) { b = 2 },
		func(context.Context) { c = 3 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 || c != 3 {
		t.Errorf("stages did not all run: %d %d %d", a, b, c)
	}
}
