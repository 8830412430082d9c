package serve

import (
	"fmt"
	"sync"

	"netfail/internal/obs"
)

// Policy selects what a full queue does with the next record — the
// overload contract between a source and the ingest path.
type Policy int

const (
	// Block makes the producer wait for space: lossless backpressure.
	// This is the deterministic-replay setting — nothing is shed, so a
	// replayed campaign ingests every record exactly once.
	Block Policy = iota
	// DropOldest sheds the queue's oldest record to admit the new one:
	// bounded staleness, the live-tail setting where the freshest
	// evidence matters most.
	DropOldest
	// DropNewest sheds the incoming record: bounded work that keeps
	// the oldest evidence, the setting for strictly ordered archives.
	DropNewest
)

// String names the policy the way the -policy flag spells it.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a -policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	default:
		return 0, fmt.Errorf("serve: unknown policy %q (want block, drop-oldest, or drop-newest)", s)
	}
}

// pushResult is what push did with a record.
type pushResult int

const (
	// pushAdmitted: the record is in the queue (under DropOldest an
	// older record may have been shed to make room).
	pushAdmitted pushResult = iota
	// pushShed: the record itself was shed (DropNewest on a full
	// queue).
	pushShed
	// pushClosed: the queue no longer admits records; the producer
	// should stop.
	pushClosed
)

// A queue is a bounded FIFO ring of records with a shed policy. It is
// a mutex/cond ring rather than a channel so that a full queue can
// shed by policy, closing mid-drain is well defined, and depth /
// high-watermark / shed accounting is exact.
type queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	buf  []Record
	head int
	n    int

	policy    Policy
	closed    bool
	shed      int64 // records lost to the policy (either end)
	highwater int   // max depth ever observed

	// shedMetric mirrors shed into the registry at the moment of each
	// shed, so the debug endpoint shows losses live (nil-safe).
	shedMetric *obs.Counter
}

func newQueue(capacity int, policy Policy, shedMetric *obs.Counter) *queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &queue{buf: make([]Record, capacity), policy: policy, shedMetric: shedMetric}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// push admits rec under the policy. Under Block it waits for space;
// under the drop policies it returns immediately, shedding one record
// when full.
func (q *queue) push(rec Record) pushResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.policy == Block && q.n == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return pushClosed
	}
	if q.n == len(q.buf) {
		switch q.policy {
		case DropNewest:
			q.shed++
			q.shedMetric.Add(1)
			return pushShed
		case DropOldest:
			q.buf[q.head] = Record{}
			q.head = (q.head + 1) % len(q.buf)
			q.n--
			q.shed++
			q.shedMetric.Add(1)
		}
	}
	q.buf[(q.head+q.n)%len(q.buf)] = rec
	q.n++
	if q.n > q.highwater {
		q.highwater = q.n
	}
	q.notEmpty.Signal()
	return pushAdmitted
}

// take moves what is queued, oldest first and at most cap(dst)
// records, into dst[:0], waiting while the queue is open and empty.
// After close it keeps returning the backlog — drain semantics — and
// returns no record only once closed and empty. Producers blocked on
// a full queue are woken once per batch.
func (q *queue) take(dst []Record) []Record {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	dst = dst[:0]
	for q.n > 0 && len(dst) < cap(dst) {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = Record{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	if len(dst) > 0 {
		q.notFull.Broadcast()
	}
	return dst
}

// close stops admission. Blocked pushers return pushClosed; poppers
// drain the backlog and then stop. Idempotent.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}

// discard closes the queue and throws away the backlog, counting it
// as shed — the drain-deadline escape hatch. Returns how many records
// were discarded.
func (q *queue) discard() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	dropped := q.n
	q.shed += int64(dropped)
	q.shedMetric.Add(int64(dropped))
	for i := range q.buf {
		q.buf[i] = Record{}
	}
	q.head, q.n = 0, 0
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	return dropped
}

// depth returns the current queue depth.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// stats returns the shed count and high-watermark.
func (q *queue) stats() (shed int64, highwater int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shed, q.highwater
}
