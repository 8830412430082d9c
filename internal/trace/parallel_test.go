package trace

// ReconstructPolicy above one worker shards the state machine per link
// and merges in sorted-link order; every worker count must reproduce
// the sequential reconstruction exactly, field for field.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

func TestReconstructParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 5, 99} {
		// randomTransitions (property_test.go) deliberately includes
		// the messy shapes the state machine handles: repeated downs,
		// dangling ups, open failures, equal-time entries.
		rng := rand.New(rand.NewSource(seed))
		ts := randomTransitions(rng, 600)
		want := Reconstruct(ts)
		for _, workers := range []int{0, 2, 3, 8, 64} {
			got := ReconstructPolicy(context.Background(), ts, HoldPrevious, workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d workers %d: parallel reconstruction diverges", seed, workers)
			}
		}
	}
}

func TestReconstructParallelEmpty(t *testing.T) {
	want := Reconstruct(nil)
	got := ReconstructPolicy(context.Background(), nil, HoldPrevious, 8)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("empty input: parallel %+v, sequential %+v", got, want)
	}
}
