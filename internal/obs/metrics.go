package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// A Registry holds named counters and gauges describing pipeline
// volume: messages parsed and dropped, LSPs processed, transitions
// matched, pool tasks queued and ran. All methods are safe for
// concurrent use, and a nil *Registry (metrics disabled) is a valid
// no-op whose lookups return nil no-op instruments.
//
// String renders the registry as one JSON object, the body
// /api/v1/metrics serves.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter // guarded by mu
	gauges   map[string]*Gauge   // guarded by mu
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{} }

// A Counter is a monotonically increasing int64. A nil *Counter
// drops updates.
type Counter struct{ v atomic.Int64 }

// Add folds n into the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter; zero for nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a settable int64. A nil *Gauge drops updates.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reads the gauge; zero for nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter returns the named counter, creating it at zero on first
// use. Callers in hot loops should look the counter up once outside
// the loop. A nil registry returns a nil no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use. A
// nil registry returns a nil no-op gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		r.gauges[name] = g
	}
	return g
}

// A MetricValue is one named metric in a snapshot.
type MetricValue struct {
	Name  string
	Value int64
}

// Snapshot returns every counter and gauge sorted by name.
func (r *Registry) Snapshot() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, MetricValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricValue{Name: name, Value: g.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the snapshot as a JSON object.
func (r *Registry) String() string {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, m := range r.Snapshot() {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "%q: %d", m.Name, m.Value)
	}
	buf.WriteByte('}')
	return buf.String()
}

// WriteText renders the snapshot as "metric <name> <value>" lines,
// the format netfail-analyze -metrics prints to stderr.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "metric %s %d\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}
