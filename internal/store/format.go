package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

const (
	// FormatName identifies the store format in the manifest.
	FormatName = "NFSTORE1"

	// FailuresSegment, TransitionsSegment and their companions are the
	// fixed store file names; message segments are numbered per
	// capture shard (MessageSegmentName).
	FailuresSegment     = "failures.seg"
	FailuresIndex       = "failures.idx"
	FailuresPostings    = "failures.pst"
	TransitionsSegment  = "transitions.seg"
	TransitionsIndex    = "transitions.idx"
	TransitionsPostings = "transitions.pst"

	// ManifestName is the store manifest file.
	ManifestName = "manifest.json"
)

// MessageSegmentName returns the nth message segment's file name.
func MessageSegmentName(n int) string { return fmt.Sprintf("messages-%04d.seg", n) }

// MessageIndexName returns the nth message segment's index file name.
func MessageIndexName(n int) string { return fmt.Sprintf("messages-%04d.idx", n) }

// MessagePostingsName returns the nth message segment's postings file.
func MessagePostingsName(n int) string { return fmt.Sprintf("messages-%04d.pst", n) }

// Source identifies which reconstruction a failure came from.
type Source uint8

const (
	// SourceSyslog is the syslog reconstruction.
	SourceSyslog Source = iota
	// SourceISIS is the IS-IS listener reconstruction.
	SourceISIS
)

// String returns "syslog" or "isis".
func (s Source) String() string {
	if s == SourceISIS {
		return "isis"
	}
	return "syslog"
}

// ParseSource is the inverse of Source.String.
func ParseSource(s string) (Source, error) {
	switch s {
	case "syslog":
		return SourceSyslog, nil
	case "isis":
		return SourceISIS, nil
	}
	return 0, fmt.Errorf("store: unknown source %q", s)
}

// Stream identifies which of the analysis's filtered transition
// streams a stored transition belongs to.
type Stream uint8

const (
	// StreamSyslogAdj is the merged syslog adjacency stream.
	StreamSyslogAdj Stream = iota
	// StreamSyslogPerRouter is the unmerged per-router adjacency stream.
	StreamSyslogPerRouter
	// StreamSyslogPhysical is the merged physical-layer stream.
	StreamSyslogPhysical
	// StreamISReach is the listener's IS-reachability stream.
	StreamISReach
	// StreamIPReach is the listener's IP-reachability stream.
	StreamIPReach
)

// String names the stream as the query surface spells it.
func (s Stream) String() string {
	switch s {
	case StreamSyslogAdj:
		return "syslog-adj"
	case StreamSyslogPerRouter:
		return "syslog-per-router"
	case StreamSyslogPhysical:
		return "syslog-physical"
	case StreamISReach:
		return "is-reach"
	case StreamIPReach:
		return "ip-reach"
	default:
		return fmt.Sprintf("Stream(%d)", int(s))
	}
}

// ParseStream is the inverse of Stream.String.
func ParseStream(s string) (Stream, error) {
	for _, st := range []Stream{StreamSyslogAdj, StreamSyslogPerRouter, StreamSyslogPhysical, StreamISReach, StreamIPReach} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("store: unknown stream %q", s)
}

// FailureRecord is one stored failure: a trace.Failure plus the
// reconstruction it came from.
type FailureRecord struct {
	Source Source      `json:"source"`
	Link   topo.LinkID `json:"link"`
	Start  time.Time   `json:"start"`
	End    time.Time   `json:"end"`
}

// Failure converts back to the trace model.
func (r FailureRecord) Failure() trace.Failure {
	return trace.Failure{Link: r.Link, Start: r.Start, End: r.End}
}

// TransitionRecord is one stored transition: a trace.Transition plus
// the analysis stream it was filed under.
type TransitionRecord struct {
	Stream   Stream          `json:"stream"`
	Time     time.Time       `json:"time"`
	Link     topo.LinkID     `json:"link"`
	Dir      trace.Direction `json:"dir"`
	Kind     trace.Kind      `json:"kind"`
	Reporter string          `json:"reporter"`
}

// MessageRecord is one stored syslog line: the raw wire form plus the
// emitting host and the capture timestamp (millisecond precision, the
// frame clock every segment shares).
type MessageRecord struct {
	Time time.Time `json:"time"`
	Host string    `json:"host"`
	Line string    `json:"line"`
}

// Record payload sizes. Every stored record is the segment frame's
// record bytes (the frame itself carries the millisecond timestamp);
// full-precision times travel inside the record as UnixNano.
const (
	failureRecLen    = 1 + 4 + 8 + 8         // source, link, startNs, endNs
	transitionRecLen = 1 + 1 + 1 + 4 + 4 + 8 // stream, dir, kind, link, reporter, timeNs
	messageRecMinLen = 4                     // host; the line follows
)

// appendFailureRecord encodes a failure into dst.
func appendFailureRecord(dst []byte, source Source, link uint32, startNs, endNs int64) []byte {
	var b [failureRecLen]byte
	b[0] = byte(source)
	binary.LittleEndian.PutUint32(b[1:], link)
	binary.LittleEndian.PutUint64(b[5:], uint64(startNs))
	binary.LittleEndian.PutUint64(b[13:], uint64(endNs))
	return append(dst, b[:]...)
}

// decodeFailureRecord decodes one failures.seg record.
func decodeFailureRecord(rec []byte) (source Source, link uint32, startNs, endNs int64, err error) {
	if len(rec) != failureRecLen {
		return 0, 0, 0, 0, fmt.Errorf("store: failure record: %d bytes, want %d", len(rec), failureRecLen)
	}
	source = Source(rec[0])
	if source > SourceISIS {
		return 0, 0, 0, 0, fmt.Errorf("store: failure record: unknown source %d", rec[0])
	}
	link = binary.LittleEndian.Uint32(rec[1:])
	startNs = int64(binary.LittleEndian.Uint64(rec[5:]))
	endNs = int64(binary.LittleEndian.Uint64(rec[13:]))
	return source, link, startNs, endNs, nil
}

// appendTransitionRecord encodes a transition into dst.
func appendTransitionRecord(dst []byte, stream Stream, dir trace.Direction, kind trace.Kind, link, reporter uint32, timeNs int64) []byte {
	var b [transitionRecLen]byte
	b[0] = byte(stream)
	b[1] = byte(dir)
	b[2] = byte(kind)
	binary.LittleEndian.PutUint32(b[3:], link)
	binary.LittleEndian.PutUint32(b[7:], reporter)
	binary.LittleEndian.PutUint64(b[11:], uint64(timeNs))
	return append(dst, b[:]...)
}

// decodeTransitionRecord decodes one transitions.seg record.
func decodeTransitionRecord(rec []byte) (stream Stream, dir trace.Direction, kind trace.Kind, link, reporter uint32, timeNs int64, err error) {
	if len(rec) != transitionRecLen {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("store: transition record: %d bytes, want %d", len(rec), transitionRecLen)
	}
	stream = Stream(rec[0])
	if stream > StreamIPReach {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("store: transition record: unknown stream %d", rec[0])
	}
	dir = trace.Direction(rec[1])
	if dir != trace.Down && dir != trace.Up {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("store: transition record: unknown direction %d", rec[1])
	}
	kind = trace.Kind(rec[2])
	if kind < trace.KindISISAdj || kind > trace.KindSNMP {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("store: transition record: unknown kind %d", rec[2])
	}
	link = binary.LittleEndian.Uint32(rec[3:])
	reporter = binary.LittleEndian.Uint32(rec[7:])
	timeNs = int64(binary.LittleEndian.Uint64(rec[11:]))
	return stream, dir, kind, link, reporter, timeNs, nil
}

// appendMessageRecord encodes a message into dst: the host ordinal
// followed by the raw line bytes.
func appendMessageRecord(dst []byte, host uint32, line []byte) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], host)
	dst = append(dst, b[:]...)
	return append(dst, line...)
}

// decodeMessageRecord decodes one messages segment record. The
// returned line aliases rec.
func decodeMessageRecord(rec []byte) (host uint32, line []byte, err error) {
	if len(rec) < messageRecMinLen {
		return 0, nil, fmt.Errorf("store: message record: %d bytes, want >= %d", len(rec), messageRecMinLen)
	}
	return binary.LittleEndian.Uint32(rec), rec[messageRecMinLen:], nil
}

// SortFailureRecords orders failure records into the store's canonical
// order: start time, then end time, then link, then source. The writer
// frames records in this order (the segment contract wants
// non-decreasing timestamps) and the oracle tests sort pipeline output
// the same way.
func SortFailureRecords(rs []FailureRecord) { slices.SortFunc(rs, compareFailureRecords) }

// compareFailureRecords is the canonical failure order. It compares
// every stored field, so only identical records tie.
func compareFailureRecords(a, b FailureRecord) int {
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	return cmp.Or(a.End.Compare(b.End), cmp.Compare(a.Link, b.Link), cmp.Compare(a.Source, b.Source))
}

// SortTransitionRecords orders transition records into the store's
// canonical order: time, then link, then stream, then direction (Down
// first), then reporter, then kind.
func SortTransitionRecords(rs []TransitionRecord) { slices.SortFunc(rs, compareTransitionRecords) }

// compareTransitionRecords is the canonical transition order (Down
// sorts before Up). It compares every stored field, so only identical
// records tie.
func compareTransitionRecords(a, b TransitionRecord) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	return cmp.Or(cmp.Compare(a.Link, b.Link), cmp.Compare(a.Stream, b.Stream), cmp.Compare(a.Dir, b.Dir),
		cmp.Compare(a.Reporter, b.Reporter), cmp.Compare(a.Kind, b.Kind))
}
