package trace

import (
	"fmt"
	"testing"
	"time"

	"netfail/internal/topo"
)

// TestReconstructAllocBudget pins the reconstruction state machine to
// its amortized allocation rate: on a 64-link, 3200-failure input the
// only allocations are the flat grouping buffer with its index slices,
// the per-group sort wrappers, and the growth of the result slices —
// ~0.07 per failure. A per-transition allocation sneaking into
// reconstructLinkInto (the inner loop) raises the rate past one and
// fails the pin by an order of magnitude.
func TestReconstructAllocBudget(t *testing.T) {
	ts := allocBudgetTransitions()
	failures := len(ts) / 2
	avg := testing.AllocsPerRun(5, func() { Reconstruct(ts) })
	perFailure := avg / float64(failures)
	if perFailure > 0.15 {
		t.Errorf("Reconstruct allocates %.2f times per failure (%.0f for %d failures), budget is 0.15",
			perFailure, avg, failures)
	}
}

func allocBudgetTransitions() []Transition {
	out := make([]Transition, 0, 6400)
	base := time.Unix(0, 0)
	for link := 0; link < 64; link++ {
		id := topo.LinkID(fmt.Sprintf("r%03d|r%03d", link, link+1))
		for i := 0; i < 50; i++ {
			at := base.Add(time.Duration(link*100000+i*60) * time.Second)
			out = append(out, Transition{Link: id, Dir: Down, Time: at, Reporter: "a"})
			out = append(out, Transition{Link: id, Dir: Up, Time: at.Add(30 * time.Second), Reporter: "a"})
		}
	}
	return out
}
