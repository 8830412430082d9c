// Package tickets models the operator trouble-ticket system the paper
// uses as a secondary verification source (§4.2): long-lasting
// failures are reliably chronicled in tickets, so a syslog failure
// exceeding 24 hours with no corroborating ticket is almost certainly
// an artifact of lost messages. The corpus is generated from ground
// truth with realistic coverage gaps — operators do not open tickets
// for short blips.
package tickets

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Ticket is one trouble ticket.
type Ticket struct {
	ID     int
	Link   topo.LinkID
	Opened time.Time
	Closed time.Time
	// Summary is the operator's one-line description.
	Summary string
}

// Params controls corpus generation.
type Params struct {
	// MinDuration is the shortest outage operators bother to ticket.
	MinDuration time.Duration
	// CoverageLong is the probability a >24 h outage is ticketed
	// (near 1: the paper relies on long outages being chronicled);
	// CoverageMedium applies between MinDuration and 24 h.
	CoverageLong   float64
	CoverageMedium float64
	// OpenDelayMax and CloseSlackMax blur the ticket boundaries
	// around the true outage.
	OpenDelayMax  time.Duration
	CloseSlackMax time.Duration
}

// DefaultParams returns realistic coverage.
func DefaultParams() Params {
	return Params{
		MinDuration:    30 * time.Minute,
		CoverageLong:   0.98,
		CoverageMedium: 0.6,
		OpenDelayMax:   20 * time.Minute,
		CloseSlackMax:  40 * time.Minute,
	}
}

// Generate builds a ticket corpus from the true outage list.
func Generate(seed int64, truth []trace.Failure, p Params) []Ticket {
	rng := rand.New(rand.NewSource(seed))
	var out []Ticket
	for _, f := range truth {
		d := f.Duration()
		if d < p.MinDuration {
			continue
		}
		coverage := p.CoverageMedium
		if d > 24*time.Hour {
			coverage = p.CoverageLong
		}
		if rng.Float64() >= coverage {
			continue
		}
		opened := f.Start.Add(time.Duration(rng.Int63n(int64(p.OpenDelayMax) + 1)))
		closed := f.End.Add(time.Duration(rng.Int63n(int64(p.CloseSlackMax) + 1)))
		out = append(out, Ticket{
			ID:      len(out) + 1,
			Link:    f.Link,
			Opened:  opened,
			Closed:  closed,
			Summary: fmt.Sprintf("link %s down %s, restored %s", f.Link, f.Start.Format(time.RFC3339), f.End.Format(time.RFC3339)),
		})
	}
	return out
}

// Index answers verification queries against a corpus.
type Index struct {
	byLink map[topo.LinkID][]Ticket
}

// NewIndex builds the per-link lookup.
func NewIndex(ts []Ticket) *Index {
	idx := &Index{byLink: make(map[topo.LinkID][]Ticket)}
	for _, t := range ts {
		idx.byLink[t.Link] = append(idx.byLink[t.Link], t)
	}
	for _, list := range idx.byLink {
		sort.Slice(list, func(i, j int) bool { return list[i].Opened.Before(list[j].Opened) })
	}
	return idx
}

// Len returns the corpus size.
func (ix *Index) Len() int {
	n := 0
	for _, l := range ix.byLink {
		n += len(l)
	}
	return n
}

// Verify reports whether the ticket record corroborates the claimed
// failure: some ticket on the same link must cover at least half of
// the failure's span. A spurious multi-day "failure" assembled from
// lost messages spans mostly healthy time and finds no such ticket.
func (ix *Index) Verify(f trace.Failure) bool {
	for _, t := range ix.byLink[f.Link] {
		if t.Opened.After(f.End) {
			break
		}
		overlap := minTime(t.Closed, f.End).Sub(maxTime(t.Opened, f.Start))
		if overlap*2 >= f.Duration() {
			return true
		}
	}
	return false
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
