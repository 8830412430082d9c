package netsim

import (
	"context"
	"time"
)

// fifoHeap is a min-heap of values keyed by an int64 instant; entries
// with equal keys pop in push order. Entries are stored by value and
// sifted by hand: no interface boxing, no per-entry allocation, and
// the comparison is two integer compares. The scheduler (key:
// nanoseconds since the campaign start) and the spill sink's reorder
// buffer (key: the message's millisecond stamp) both run on it.
type fifoHeap[V any] struct {
	q   []heapEntry[V]
	seq uint64
}

type heapEntry[V any] struct {
	key int64
	seq uint64 // push order, the equal-key tiebreak
	val V
}

func (e *heapEntry[V]) before(o *heapEntry[V]) bool {
	return e.key < o.key || e.key == o.key && e.seq < o.seq
}

func (h *fifoHeap[V]) len() int { return len(h.q) }

// minKey returns the smallest key; the heap must not be empty.
func (h *fifoHeap[V]) minKey() int64 { return h.q[0].key }

func (h *fifoHeap[V]) push(key int64, val V) {
	h.seq++
	e := heapEntry[V]{key: key, seq: h.seq, val: val}
	h.q = append(h.q, e)
	q := h.q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *fifoHeap[V]) pop() (int64, V) {
	q := h.q
	top := q[0]
	last := len(q) - 1
	e := q[last]
	q[last] = heapEntry[V]{} // release the value
	q = q[:last]
	h.q = q
	if last == 0 {
		return top.key, top.val
	}
	// Sift the former last entry down from the root, moving children up
	// into the hole instead of swapping.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if right := child + 1; right < last && q[right].before(&q[child]) {
			child = right
		}
		if !q[child].before(&e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
	return top.key, top.val
}

// Scheduler is a deterministic discrete-event executor. Instants are
// held as integer nanoseconds since the start time, so ordering the
// queue never touches a time.Time; Now converts back, in the start
// time's location and without a monotonic reading — rendered syslog
// timestamps depend on both.
type Scheduler struct {
	heap  fifoHeap[func()]
	start time.Time
	now   int64 // nanoseconds since start
}

// NewScheduler creates a scheduler positioned at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{start: start.Round(0)}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Time { return s.start.Add(time.Duration(s.now)) }

// At schedules fn at the given absolute time. Scheduling in the past
// is clamped to the current instant (runs next).
func (s *Scheduler) At(t time.Time, fn func()) {
	s.heap.push(max(int64(t.Sub(s.start)), s.now), fn)
}

// After schedules fn after a delay from the current simulated time.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.heap.push(s.now+int64(max(d, 0)), fn)
}

// cancelCheckInterval bounds cancellation latency without putting a
// ctx.Err() call (two atomic loads) on every event: a month-scale
// campaign executes hundreds of thousands of events in a few hundred
// milliseconds, so checking every 4096 keeps the response to a cancel
// well under a millisecond of simulated work.
const cancelCheckInterval = 4096

// RunCtx executes events in order until the queue empties or the
// clock passes end; events scheduled at or before end by running
// events are also executed. It returns the number of events executed.
// It stops between events when ctx is canceled and returns ctx's error
// alongside the count executed so far. A canceled run leaves the
// scheduler mid-campaign; the caller discards the simulation.
func (s *Scheduler) RunCtx(ctx context.Context, end time.Time) (int, error) {
	endNs := int64(end.Sub(s.start))
	executed := 0
	for s.heap.len() > 0 {
		if executed%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return executed, err
			}
		}
		if s.heap.minKey() > endNs {
			break
		}
		var fn func()
		s.now, fn = s.heap.pop()
		fn()
		executed++
	}
	s.now = max(s.now, endNs)
	return executed, nil
}
