// Package obs is the pipeline observability layer: a deterministic
// hierarchical span tracer, a metrics registry of named counters and
// gauges, and an optional progress-event stream — all stdlib-only and
// all strictly observational.
//
// The §3.4 pipeline (simulate → mine → listen → ticket-verify → match
// → analyze → report) is long, parallel, and — before this package —
// opaque: no stage timings, no message accounting, no way to see
// where a 13-month campaign spends its time or drops its records.
// Everything here rides along a context.Context (see WithTracer,
// WithRegistry, WithProgress), so instrumentation reaches every stage
// and every pool shard without widening a single stage signature
// beyond the context it already takes for cancellation.
//
// Three invariants shape the design:
//
//   - Observation never changes results. Tracing, metrics, and
//     progress influence no iteration order, no merge order, and no
//     rendered byte; the byte-identical-report contract
//     (TestParallelismIsByteIdentical) holds with the full
//     observability stack attached.
//   - Disabled means free. Every entry point is nil-safe: a nil
//     *Tracer, nil *Registry, nil *Span, or absent context key
//     degenerates to a no-op, so uninstrumented runs pay only a
//     context lookup per pipeline stage.
//   - Wall time flows through internal/clock. The tracer reads its
//     clock via the injected clock.Clock, never time.Now (the
//     detclock analyzer enforces this repo-wide), so tests pin span
//     durations with a clock.Fake and golden-file the renderers.
package obs

import (
	"sort"
	"sync"
	"time"

	"netfail/internal/clock"
)

// A Tracer records a forest of hierarchical spans: one per pipeline
// stage, plus per-worker shard spans under the parallel stages. All
// methods are safe for concurrent use; a nil *Tracer is a valid no-op
// tracer.
type Tracer struct {
	clk clock.Clock

	mu    sync.Mutex
	roots []*Span // guarded by mu
	seq   int     // guarded by mu
}

// NewTracer returns a tracer timing spans off the system wall clock.
func NewTracer() *Tracer { return NewTracerClock(clock.System()) }

// NewTracerClock returns a tracer timing spans off clk; tests inject
// a clock.Fake for deterministic durations.
func NewTracerClock(clk clock.Clock) *Tracer { return &Tracer{clk: clk} }

// A Span is one timed region of the pipeline: a stage, a sub-stage,
// or a parallel shard. Spans form a tree under their Tracer. A nil
// *Span is a valid no-op (the disabled-tracing fast path), so callers
// never branch on whether tracing is on.
//
// Mutable span state (duration, counters, children) is protected by
// the owning tracer's mutex.
type Span struct {
	tracer *Tracer
	name   string
	parent *Span
	start  time.Time
	seq    int

	ended    bool
	dur      time.Duration
	counters map[string]int64
	children []*Span
}

// Start begins a new root span.
func (t *Tracer) Start(name string) *Span { return t.span(nil, name) }

func (t *Tracer) span(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s := &Span{tracer: t, name: name, parent: parent, start: now, seq: t.seq}
	if parent == nil {
		t.roots = append(t.roots, s)
	} else {
		parent.children = append(parent.children, s)
	}
	return s
}

// Child begins a sub-span of s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.span(s, name)
}

// End closes the span, fixing its wall duration. Ending twice keeps
// the first duration; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.clk.Now()
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.dur = now.Sub(s.start)
	}
}

// Add folds n into the span's named counter.
func (s *Span) Add(counter string, n int64) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[counter] += n
}

// A SpanInfo is an immutable snapshot of one span, safe to walk and
// render while the pipeline is still running.
type SpanInfo struct {
	// Name is the stage or shard name.
	Name string
	// Start is the instant the span began.
	Start time.Time
	// Dur is the wall duration; zero with Ended false means the span
	// is still open.
	Dur time.Duration
	// Ended reports whether End was called.
	Ended bool
	// Counters are the span's counters sorted by name.
	Counters []CounterValue
	// Children are the sub-spans in creation order.
	Children []*SpanInfo
}

// A CounterValue is one named span counter.
type CounterValue struct {
	Name  string
	Value int64
}

// Snapshot returns an immutable copy of the recorded span forest,
// roots in creation order.
func (t *Tracer) Snapshot() []*SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*SpanInfo, len(t.roots))
	for i, s := range t.roots {
		out[i] = s.infoLocked()
	}
	return out
}

// infoLocked copies one span subtree; the tracer mutex is held.
func (s *Span) infoLocked() *SpanInfo {
	info := &SpanInfo{
		Name:  s.name,
		Start: s.start,
		Dur:   s.dur,
		Ended: s.ended,
	}
	if len(s.counters) > 0 {
		info.Counters = make([]CounterValue, 0, len(s.counters))
		for name, v := range s.counters {
			info.Counters = append(info.Counters, CounterValue{Name: name, Value: v})
		}
		sort.Slice(info.Counters, func(i, j int) bool {
			return info.Counters[i].Name < info.Counters[j].Name
		})
	}
	for _, c := range s.children {
		info.Children = append(info.Children, c.infoLocked())
	}
	return info
}
