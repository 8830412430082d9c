package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"netfail/internal/obs"
)

// pop is take one record at a time: the oldest record, waiting while
// the queue is open and empty, ok=false once closed and empty.
func (q *queue) pop() (Record, bool) {
	got := q.take(make([]Record, 0, 1))
	if len(got) == 0 {
		return Record{}, false
	}
	return got[0], true
}

func rec(i int) Record {
	return Record{Source: "s", Data: []byte(fmt.Sprintf("r%d", i))}
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue(4, Block, nil)
	for i := 0; i < 4; i++ {
		if got := q.push(rec(i)); got != pushAdmitted {
			t.Fatalf("push %d: %v", i, got)
		}
	}
	q.close()
	for i := 0; i < 4; i++ {
		r, ok := q.pop()
		if !ok || string(r.Data) != fmt.Sprintf("r%d", i) {
			t.Fatalf("pop %d: %q ok=%v", i, r.Data, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Error("pop on closed empty queue reported a record")
	}
}

// TestQueueTakeIsBoundedByDst: take moves what is queued, oldest
// first, at most cap(dst) records, without waiting to fill dst.
func TestQueueTakeIsBoundedByDst(t *testing.T) {
	q := newQueue(8, Block, nil)
	for i := 0; i < 5; i++ {
		q.push(rec(i))
	}
	batch := make([]Record, 0, 3)
	for _, want := range []struct {
		data  string
		depth int
	}{{"r0 r1 r2", 2}, {"r3 r4", 0}} {
		batch = q.take(batch)
		var data []string
		for _, r := range batch {
			data = append(data, string(r.Data))
		}
		if got := strings.Join(data, " "); got != want.data || q.depth() != want.depth {
			t.Fatalf("take = %q (depth %d), want %q (depth %d)", got, q.depth(), want.data, want.depth)
		}
	}
}

func TestQueueDropNewestShedsExactly(t *testing.T) {
	reg := obs.NewRegistry()
	counter := reg.Counter("shed")
	q := newQueue(3, DropNewest, counter)
	for i := 0; i < 10; i++ {
		q.push(rec(i))
	}
	shed, hw := q.stats()
	if shed != 7 || counter.Value() != 7 {
		t.Errorf("shed = %d (metric %d), want 7", shed, counter.Value())
	}
	if hw != 3 || q.depth() != 3 {
		t.Errorf("highwater = %d depth = %d, want 3, 3", hw, q.depth())
	}
	// The oldest three survive under drop-newest.
	q.close()
	for i := 0; i < 3; i++ {
		r, _ := q.pop()
		if string(r.Data) != fmt.Sprintf("r%d", i) {
			t.Errorf("kept record %d = %q", i, r.Data)
		}
	}
}

func TestQueueDropOldestKeepsTail(t *testing.T) {
	q := newQueue(3, DropOldest, nil)
	for i := 0; i < 10; i++ {
		if got := q.push(rec(i)); got != pushAdmitted {
			t.Fatalf("push %d under drop-oldest: %v", i, got)
		}
	}
	shed, _ := q.stats()
	if shed != 7 {
		t.Errorf("shed = %d, want 7", shed)
	}
	// The newest three survive under drop-oldest.
	q.close()
	for i := 7; i < 10; i++ {
		r, _ := q.pop()
		if string(r.Data) != fmt.Sprintf("r%d", i) {
			t.Errorf("kept record = %q, want r%d", r.Data, i)
		}
	}
}

func TestQueueBlockBackpressures(t *testing.T) {
	q := newQueue(1, Block, nil)
	q.push(rec(0))
	admitted := make(chan pushResult, 1)
	go func() { admitted <- q.push(rec(1)) }()
	select {
	case r := <-admitted:
		t.Fatalf("push into a full Block queue returned %v immediately", r)
	case <-time.After(20 * time.Millisecond):
	}
	if r, ok := q.pop(); !ok || string(r.Data) != "r0" {
		t.Fatalf("pop: %q ok=%v", r.Data, ok)
	}
	if r := <-admitted; r != pushAdmitted {
		t.Fatalf("unblocked push returned %v", r)
	}
	shed, _ := q.stats()
	if shed != 0 {
		t.Errorf("Block policy shed %d records", shed)
	}
}

func TestQueueCloseUnblocksPush(t *testing.T) {
	q := newQueue(1, Block, nil)
	q.push(rec(0))
	result := make(chan pushResult, 1)
	go func() { result <- q.push(rec(1)) }()
	time.Sleep(10 * time.Millisecond)
	q.close()
	if r := <-result; r != pushClosed {
		t.Errorf("push unblocked by close returned %v, want pushClosed", r)
	}
	// The backlog is still drainable after close.
	if r, ok := q.pop(); !ok || string(r.Data) != "r0" {
		t.Errorf("drain after close: %q ok=%v", r.Data, ok)
	}
}

func TestQueueDiscardCountsBacklogAsShed(t *testing.T) {
	reg := obs.NewRegistry()
	counter := reg.Counter("shed")
	q := newQueue(8, Block, counter)
	for i := 0; i < 5; i++ {
		q.push(rec(i))
	}
	if n := q.discard(); n != 5 {
		t.Errorf("discard returned %d, want 5", n)
	}
	if counter.Value() != 5 {
		t.Errorf("shed metric = %d, want 5", counter.Value())
	}
	if _, ok := q.pop(); ok {
		t.Error("pop after discard returned a record")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Block, DropOldest, DropNewest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}
