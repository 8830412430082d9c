package netsim

import (
	"testing"
	"time"
)

// TestForkInPlaceAllocs: a fork re-seeded in place allocates nothing.
func TestForkInPlaceAllocs(t *testing.T) {
	r, dst := newRNG(1), newRNG(0)
	if allocs := testing.AllocsPerRun(100, func() {
		lr := r.fork(dst)
		lr.expDur(time.Hour)
		lr.bernoulli(0.4)
	}); allocs != 0 {
		t.Errorf("a fork re-seeded in place allocates %.1f times, want 0", allocs)
	}
}
