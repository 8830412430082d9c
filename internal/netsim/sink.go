package netsim

import (
	"math"
	"slices"
	"time"

	"netfail/internal/capture"
	"netfail/internal/syslog"
)

// eventSink receives the simulation's two observation streams as the
// scheduler produces them. The simulation drives the sink from the
// identical code path regardless of implementation — same RNG draws,
// same event schedule — so an in-RAM run and a spill run of the same
// config produce the identical event streams.
type eventSink interface {
	// syslog receives a message delivered to the collector; now is
	// the scheduler clock at delivery. Delivered messages carry
	// millisecond-truncated timestamps computed as now-at-emission
	// plus a non-negative processing delay, so every future delivery
	// is stamped at or after the floor of now's millisecond — the
	// invariant that lets the spill sink bound its reorder buffer.
	syslog(now time.Time, m syslog.Message)
	// lsp receives one LSP's wire bytes captured at now. Captures
	// arrive in scheduler order, i.e. non-decreasing time.
	lsp(now time.Time, wire []byte)
	// finish settles the streams once the scheduler has drained.
	finish() error
}

// memorySink is the classic in-RAM capture: accumulate, then sort
// once at the end. The stable sorts keep delivery order among
// equal-timestamp messages, which the spill sink reproduces with its
// delivery-sequence tiebreak.
type memorySink struct {
	camp *Campaign
	slab []syslog.Message // what Syslog points into, 256 messages an allocation
}

func (ms *memorySink) syslog(_ time.Time, m syslog.Message) {
	if len(ms.slab) == cap(ms.slab) {
		ms.slab = make([]syslog.Message, 0, 256)
	}
	ms.slab = append(ms.slab, m)
	ms.camp.Syslog = append(ms.camp.Syslog, &ms.slab[len(ms.slab)-1])
}

func (ms *memorySink) lsp(now time.Time, wire []byte) {
	// Capture files carry millisecond resolution; quantize so the
	// on-disk form is lossless.
	ms.camp.LSPLog = append(ms.camp.LSPLog, CapturedLSP{Time: now.Truncate(time.Millisecond), Data: wire})
}

func (ms *memorySink) finish() error {
	slices.SortStableFunc(ms.camp.Syslog, func(a, b *syslog.Message) int {
		return a.Timestamp.Compare(b.Timestamp)
	})
	slices.SortStableFunc(ms.camp.LSPLog, func(a, b CapturedLSP) int {
		return a.Time.Compare(b.Time)
	})
	return nil
}

// spillSink streams both observation channels to one capture shard
// with bounded memory. LSP captures already arrive in non-decreasing
// millisecond order and are framed immediately. Syslog messages carry
// timestamps up to the processing-delay horizon (~1s of simulated
// time) ahead of the scheduler, so a min-heap keyed (timestamp,
// delivery sequence) reorders them; an entry is framed only once the
// scheduler clock passes its millisecond, after which no
// earlier-stamped message can be delivered. Heap occupancy is bounded
// by that horizon's message volume, never the campaign's.
type spillSink struct {
	sw   *capture.ShardWriter
	heap fifoHeap[syslog.Message]
	buf  []byte // reused render buffer
	err  error  // first write error; surfaced by finish
}

func (sp *spillSink) syslog(now time.Time, m syslog.Message) {
	sp.heap.push(m.Timestamp.UnixMilli(), m)
	sp.flush(now.UnixMilli())
}

// flush frames every buffered message stamped strictly before
// beforeMs. Messages stamped in the scheduler's current millisecond
// stay buffered: a later delivery could still share their stamp, and
// the sequence tiebreak only orders entries that meet in the heap.
func (sp *spillSink) flush(beforeMs int64) {
	for sp.err == nil && sp.heap.len() > 0 && sp.heap.minKey() < beforeMs {
		tsMs, m := sp.heap.pop()
		sp.buf = m.AppendRender(sp.buf[:0])
		sp.err = sp.sw.AppendSyslog(tsMs, sp.buf)
	}
}

func (sp *spillSink) lsp(now time.Time, wire []byte) {
	if sp.err != nil {
		return
	}
	sp.err = sp.sw.AppendLSP(now.Truncate(time.Millisecond).UnixMilli(), wire)
}

func (sp *spillSink) finish() error {
	sp.flush(math.MaxInt64)
	return sp.err
}
