package netsim

import (
	"cmp"
	"context"
	"slices"
	"testing"
	"time"
)

// runTo is RunCtx under a context that is never canceled.
func runTo(s *Scheduler, end time.Time) int {
	n, _ := s.RunCtx(context.Background(), end)
	return n
}

func TestSchedulerOrdering(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewScheduler(start)
	var order []int
	s.At(start.Add(3*time.Second), func() { order = append(order, 3) })
	s.At(start.Add(1*time.Second), func() { order = append(order, 1) })
	s.At(start.Add(2*time.Second), func() { order = append(order, 2) })
	n := runTo(s, start.Add(time.Minute))
	if n != 3 {
		t.Errorf("executed = %d", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewScheduler(start)
	var order []int
	at := start.Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { order = append(order, i) })
	}
	runTo(s, start.Add(time.Minute))
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSchedulerEventsScheduleEvents(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewScheduler(start)
	var fired []time.Time
	s.At(start.Add(time.Second), func() {
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	runTo(s, start.Add(time.Minute))
	if len(fired) != 1 || !fired[0].Equal(start.Add(2*time.Second)) {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulerStopsAtEnd(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewScheduler(start)
	ran := false
	s.At(start.Add(time.Hour), func() { ran = true })
	runTo(s, start.Add(time.Minute))
	if ran {
		t.Error("event beyond end executed")
	}
	if s.heap.len() != 1 {
		t.Errorf("pending = %d", s.heap.len())
	}
	if !s.Now().Equal(start.Add(time.Minute)) {
		t.Errorf("now = %v", s.Now())
	}
}

func TestSchedulerPastClamped(t *testing.T) {
	start := time.Unix(100, 0)
	s := NewScheduler(start)
	var at time.Time
	s.At(start.Add(-time.Hour), func() { at = s.Now() })
	runTo(s, start.Add(time.Second))
	if !at.Equal(start) {
		t.Errorf("past event ran at %v, want %v", at, start)
	}
}

// TestSchedulerNowKeepsLocation: Now is rebuilt from an integer offset
// on every call, and must come back in the start time's location with
// no monotonic reading — the rendered syslog stamps are made from it.
func TestSchedulerNowKeepsLocation(t *testing.T) {
	loc := time.FixedZone("PST", -8*3600)
	start := time.Date(2010, time.October, 20, 0, 0, 0, 0, loc)
	s := NewScheduler(start)
	var seen time.Time
	s.At(start.Add(90*time.Minute+7*time.Nanosecond).UTC(), func() { seen = s.Now() })
	runTo(s, start.Add(24*time.Hour))
	if want := start.Add(90*time.Minute + 7*time.Nanosecond); seen != want {
		t.Errorf("Now inside the event = %#v, want %#v", seen, want)
	}
	if got := s.Now().Format(time.RFC3339); got != "2010-10-21T00:00:00-08:00" {
		t.Errorf("Now after the run = %s", got)
	}
	wall := NewScheduler(time.Now())
	if now := wall.Now(); now != now.Round(0) {
		t.Error("Now carries a monotonic reading")
	}
}

// TestHeapOrderMatchesSort: pops come out in (key, push order) order
// whatever the interleaving of pushes and pops, against a stable sort.
func TestHeapOrderMatchesSort(t *testing.T) {
	rng := newRNG(22)
	var h fifoHeap[int]
	type item struct {
		key int64
		id  int
	}
	var pending, popped, want []item
	for id := 0; id < 5000; id++ {
		it := item{key: int64(rng.Intn(300)), id: id}
		h.push(it.key, it.id)
		pending = append(pending, it)
		for rng.Intn(3) == 0 && h.len() > 0 {
			slices.SortStableFunc(pending, func(a, b item) int { return cmp.Compare(a.key, b.key) })
			want, pending = append(want, pending[0]), pending[1:]
			key, id := h.pop()
			popped = append(popped, item{key, id})
		}
	}
	slices.SortStableFunc(pending, func(a, b item) int { return cmp.Compare(a.key, b.key) })
	want = append(want, pending...)
	for h.len() > 0 {
		key, id := h.pop()
		popped = append(popped, item{key, id})
	}
	if !slices.Equal(popped, want) {
		t.Fatal("heap pop order differs from a stable sort by key")
	}
}

// TestSchedulerAllocBudget: scheduling an event and running it on a
// warm queue allocates nothing of the scheduler's own — no boxed
// entry, no heap.Interface — leaving only what the caller's callback
// captures, which here is nothing.
func TestSchedulerAllocBudget(t *testing.T) {
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	ran := 0
	fn := func() { ran++ }
	for i := 0; i < 1024; i++ {
		s.At(start.Add(time.Duration(i%97)*time.Hour), fn)
	}
	end := start
	step := func() {
		end = end.Add(time.Minute)
		s.At(end.Add(50*time.Hour), fn)
		s.After(time.Second, fn)
		runTo(s, end)
	}
	step()
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("At + After + RunCtx on a warm queue allocate %.1f times per step, budget is 0", avg)
	}
	if ran == 0 {
		t.Fatal("no event ran")
	}
}
