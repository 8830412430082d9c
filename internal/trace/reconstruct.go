package trace

import (
	"context"
	"sort"
	"time"

	"netfail/internal/pool"
	"netfail/internal/topo"
)

// AmbiguityPolicy selects how the period between two repeated
// same-direction transitions is accounted (§4.3). The paper finds
// HoldPrevious — treating the offending message as a spurious
// retransmission and leaving link state unmodified — brings syslog
// downtime closest to IS-IS downtime.
type AmbiguityPolicy int

const (
	// HoldPrevious leaves the link in the state the first message
	// established (the paper's recommendation).
	HoldPrevious AmbiguityPolicy = iota
	// AssumeDown counts every ambiguous period as downtime.
	AssumeDown
	// AssumeUp counts every ambiguous period as uptime.
	AssumeUp
)

// String names the policy.
func (p AmbiguityPolicy) String() string {
	switch p {
	case AssumeDown:
		return "assume-down"
	case AssumeUp:
		return "assume-up"
	default:
		return "hold-previous"
	}
}

// Reconstruction is the output of turning one source's transition
// stream into failure events.
type Reconstruction struct {
	// Failures are the completed Down→Up events, ordered by link
	// then start time.
	Failures []Failure
	// Ambiguities are the repeated-transition records.
	Ambiguities []Ambiguity
	// OpenAtEnd counts failures still open when the observation
	// window closed (dropped from Failures).
	OpenAtEnd int
}

// Reconstruct builds failure events from transitions using the
// paper's recommended HoldPrevious rule for repeated transitions, on
// the calling goroutine.
func Reconstruct(ts []Transition) Reconstruction {
	return ReconstructPolicy(context.Background(), ts, HoldPrevious, 1)
}

// ReconstructPolicy builds failure events from transitions, which may
// cover many links and need not be sorted. Links are assumed up at
// the start of the observation window. Repeated same-direction
// transitions are recorded as ambiguities and the span between them
// is attributed per the policy (§4.3):
//
//   - HoldPrevious: the repeated message is spurious; a second Down
//     does not move a failure's start and a second Up creates nothing.
//   - AssumeDown: the span is downtime — a double Up inserts a
//     failure covering it; a double Down extends like HoldPrevious.
//   - AssumeUp: the span is uptime — a double Down restarts the
//     failure at the second message.
//
// workers <= 1 runs the sequential reference loop. Above that the
// links, which reconstruct independently, are sharded across a bounded
// worker pool: each worker slot owns one accumulator reused across all
// the links it runs, and records per-link spans into it; the spans are
// then copied into exact-size result buffers in sorted link order —
// the same concatenation order the sequential loop produces — before
// the final sort, so the output is byte-identical for any worker
// count. Cancellation of ctx stops dispatching link shards; the
// partial result must be discarded by the caller (check ctx.Err()).
func ReconstructPolicy(ctx context.Context, ts []Transition, policy AmbiguityPolicy, workers int) Reconstruction {
	links, offsets, flat := groupLinkSeqs(ts)
	if workers <= 1 {
		var rec Reconstruction
		for i, link := range links {
			reconstructLinkInto(link, flat[offsets[i]:offsets[i+1]], policy, &rec)
		}
		sortFailures(rec.Failures)
		return rec
	}
	type linkSpan struct {
		w          int32 // worker slot that ran the link
		fOff, fLen int32 // the link's slice of the worker's Failures
		aOff, aLen int32 // ... and of its Ambiguities
	}
	spans := make([]linkSpan, len(links))
	accs := make([]Reconstruction, workers)
	_ = pool.ForEachWorkerCtx(ctx, len(links), workers, func(_ context.Context, w, i int) {
		acc := &accs[w]
		fOff, aOff := len(acc.Failures), len(acc.Ambiguities)
		reconstructLinkInto(links[i], flat[offsets[i]:offsets[i+1]], policy, acc)
		spans[i] = linkSpan{
			w:    int32(w),
			fOff: int32(fOff), fLen: int32(len(acc.Failures) - fOff),
			aOff: int32(aOff), aLen: int32(len(acc.Ambiguities) - aOff),
		}
	})
	var rec Reconstruction
	totalF, totalA := 0, 0
	for i := range accs {
		totalF += len(accs[i].Failures)
		totalA += len(accs[i].Ambiguities)
		rec.OpenAtEnd += accs[i].OpenAtEnd
	}
	// Exact-size merge buffers; empty streams stay nil, matching the
	// sequential path byte for byte.
	if totalF > 0 {
		rec.Failures = make([]Failure, 0, totalF)
	}
	if totalA > 0 {
		rec.Ambiguities = make([]Ambiguity, 0, totalA)
	}
	for i := range spans {
		sp := &spans[i]
		acc := &accs[sp.w]
		rec.Failures = append(rec.Failures, acc.Failures[sp.fOff:sp.fOff+sp.fLen]...)
		rec.Ambiguities = append(rec.Ambiguities, acc.Ambiguities[sp.aOff:sp.aOff+sp.aLen]...)
	}
	sortFailures(rec.Failures)
	return rec
}

// groupLinkSeqs is ByLink flattened: it buckets the transitions into
// one contiguous buffer — counting pass, prefix sums, scatter — and
// returns the sorted link list with each link's [offsets[i],
// offsets[i+1]) slice of the buffer, time-sorted stably (equal-time
// transitions keep input order, matching ByLink exactly). One buffer
// and three index slices replace ByLink's map of per-link slices.
func groupLinkSeqs(ts []Transition) ([]topo.LinkID, []int32, []Transition) {
	idx := make(map[topo.LinkID]int32, 64)
	var links []topo.LinkID
	for i := range ts {
		if _, ok := idx[ts[i].Link]; !ok {
			idx[ts[i].Link] = 0
			links = append(links, ts[i].Link)
		}
	}
	sortLinkIDs(links)
	for i, l := range links {
		idx[l] = int32(i)
	}
	offsets := make([]int32, len(links)+1)
	for i := range ts {
		offsets[idx[ts[i].Link]+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	cursor := make([]int32, len(links))
	copy(cursor, offsets)
	flat := make([]Transition, len(ts))
	for i := range ts {
		li := idx[ts[i].Link]
		flat[cursor[li]] = ts[i]
		cursor[li]++
	}
	for i := 0; i < len(links); i++ {
		g := flat[offsets[i]:offsets[i+1]]
		sort.SliceStable(g, func(a, b int) bool { return g[a].Time.Before(g[b].Time) })
	}
	return links, offsets, flat
}

// reconstructLinkInto runs the state machine over one link's
// (time-sorted) transition sequence, appending to rec. Links are
// independent, which is what makes the pipeline shardable; appending
// into a long-lived accumulator is what lets the per-worker scratch
// amortize across the many links each worker runs.
func reconstructLinkInto(link topo.LinkID, seq []Transition, policy AmbiguityPolicy, rec *Reconstruction) {
	down := false
	var start time.Time
	var lastDir Direction
	var lastTime time.Time
	seen := false
	for _, t := range seq {
		if seen && t.Dir == lastDir {
			rec.Ambiguities = append(rec.Ambiguities, Ambiguity{
				Link: link, Dir: t.Dir, First: lastTime, Second: t.Time,
			})
			switch {
			case policy == AssumeUp && t.Dir == Down && down:
				// The span was uptime: restart the failure here.
				start = t.Time
			case policy == AssumeDown && t.Dir == Up && !down:
				// The span was downtime: record it as a failure.
				rec.Failures = append(rec.Failures, Failure{Link: link, Start: lastTime, End: t.Time})
			}
			lastTime = t.Time
			continue
		}
		switch t.Dir {
		case Down:
			down = true
			start = t.Time
		case Up:
			if down {
				rec.Failures = append(rec.Failures, Failure{Link: link, Start: start, End: t.Time})
				down = false
			} else if !seen {
				// Leading Up with no preceding Down: state was
				// already up; nothing to record.
			}
		}
		lastDir, lastTime, seen = t.Dir, t.Time, true
	}
	if down {
		rec.OpenAtEnd++
	}
}

func sortFailures(fs []Failure) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Link != fs[j].Link {
			return fs[i].Link < fs[j].Link
		}
		return fs[i].Start.Before(fs[j].Start)
	})
}

// Downtime computes total downtime per link over the observation
// window under the given ambiguity policy. Ambiguous periods are
// attributed per the policy; unambiguous failures count fully. A
// failure still open at end is dropped (its true extent is unknown),
// consistent with Reconstruct.
func Downtime(ts []Transition, policy AmbiguityPolicy) map[topo.LinkID]time.Duration {
	result := make(map[topo.LinkID]time.Duration)
	for link, seq := range ByLink(ts) {
		var total time.Duration
		down := false
		var since time.Time
		var lastDir Direction
		var lastTime time.Time
		seen := false
		for _, t := range seq {
			if seen && t.Dir == lastDir {
				// Ambiguous span [lastTime, t.Time].
				switch policy {
				case AssumeDown:
					if !down {
						total += t.Time.Sub(lastTime)
					}
					// If already down, the open failure covers it.
				case AssumeUp:
					if down {
						// Close the accumulated downtime at the
						// start of the ambiguous span and restart
						// at its end.
						total += lastTime.Sub(since)
						since = t.Time
					}
				case HoldPrevious:
					// State unmodified: nothing to adjust.
				}
				lastTime = t.Time
				continue
			}
			switch t.Dir {
			case Down:
				if !down {
					down = true
					since = t.Time
				}
			case Up:
				if down {
					total += t.Time.Sub(since)
					down = false
				}
			}
			lastDir, lastTime, seen = t.Dir, t.Time, true
		}
		if total > 0 {
			result[link] = total
		}
	}
	return result
}

func sortLinkIDs(links []topo.LinkID) {
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
}
