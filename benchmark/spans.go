package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded by the staged driver
// from outside the layer: name, start, end and the span that caused
// it. Times are nanoseconds since the recorder was made. Mallocs and
// Bytes are runtime.MemStats deltas across the call (0 for spans
// recorded without them).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: top level
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// recorder keeps a traced run's spans in memory; write puts them out
// once the run is over.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span IDs
	rep      int   // index of the current repetition's first span
}

// startRep begins a repetition of the staged driver: total and
// topLevelSum then look at its spans alone.
func (r *recorder) startRep() { r.rep = len(r.spans) }

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return 0
	}
	return r.open[len(r.open)-1]
}

// do records a span around fn with MemStats deltas. ReadMemStats
// stops the world, which is why only the traced run uses it.
func (r *recorder) do(name string, fn func()) span {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := r.light(name, fn)
	runtime.ReadMemStats(&after)
	s.Mallocs = after.Mallocs - before.Mallocs
	s.Bytes = after.TotalAlloc - before.TotalAlloc
	r.spans[s.ID-1] = s
	return s
}

// light records a span around fn without touching MemStats, for
// per-operation spans where a stop-the-world would be the cost.
func (r *recorder) light(name string, fn func()) span {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name})
	r.open = append(r.open, id)
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id-1]
	s.StartNs, s.EndNs = int64(start), int64(end)
	return *s
}

// total sums the seconds and mallocs of the repetition's spans with
// the name.
func (r *recorder) total(name string) (seconds float64, mallocs uint64, n int) {
	for _, s := range r.spans[r.rep:] {
		if s.Name == name {
			seconds += s.seconds()
			mallocs += s.Mallocs
			n++
		}
	}
	return seconds, mallocs, n
}

// topLevelSum adds up the top-level spans whose names are listed: the
// staged pipeline's total, to set against the un-staged pass.
func (r *recorder) topLevelSum(names ...string) float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var sum float64
	for _, s := range r.spans[r.rep:] {
		if s.Parent == 0 && want[s.Name] {
			sum += s.seconds()
		}
	}
	return sum
}

// write puts the spans out as one JSON document.
func (r *recorder) write(path string) error {
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{r.workload, r.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
