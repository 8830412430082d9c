package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"netfail/internal/frame"
	"netfail/internal/salvage"
)

// SegmentReader streams one segment's records. Next returns each
// record's timestamp and bytes; the byte slice is a view into the
// frame reader's window, valid only until the next call — consumers
// (the syslog Tokenizer, the LSP decoder) copy or intern everything
// they retain, which is what keeps the read path zero-copy.
//
// A strict reader aborts on the first damaged frame with a record- and
// offset-accurate error; a lenient one skips damaged regions and
// accounts every skip in its salvage report (see internal/frame).
type SegmentReader struct {
	fr *frame.Reader
	f  *os.File // nil when the reader does not own a file
	at []byte   // RecordAt's frame buffer
}

// newSegmentReader wraps r, positioned at the segment magic, as a
// frame stream. name labels errors (typically the file path).
func newSegmentReader(r io.Reader, name string, lenient bool) (*SegmentReader, error) {
	sr := &SegmentReader{fr: frame.NewReader(r, name, tsLen, lenient, nil)}
	if err := sr.fr.Header(segHeader); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return sr, nil
}

// OpenSegment opens path as a strict frame stream from its first
// record: OpenSegmentAt(path, IndexEntry{}, 0, false).
func OpenSegment(path string) (*SegmentReader, error) {
	return OpenSegmentAt(path, IndexEntry{}, 0, false)
}

// OpenSegmentAt opens path and positions the reader with
// Seek(e, span).
func OpenSegmentAt(path string, e IndexEntry, span int64, lenient bool) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	sr := &SegmentReader{fr: frame.NewReader(f, path, tsLen, lenient, nil), f: f}
	if err := sr.Seek(e, span); err != nil {
		f.Close()
		return nil, err
	}
	return sr, nil
}

// Seek repositions a file-backed reader at a frame boundary taken
// from the segment's sparse index and reads from that record on; the
// zero IndexEntry is the start of the segment, behind its verified
// magic. Lenient, an entry pointing into a damaged region simply
// resynchronizes on the next intact frame. span is the distance to the
// next index entry when the caller will not read past it — a point
// fetch then reads those bytes, through one window reused across
// seeks — and zero for a bulk read, which keeps the default window.
func (sr *SegmentReader) Seek(e IndexEntry, span int64) error {
	fromStart := e == IndexEntry{}
	if !fromStart && e.Offset < int64(len(segHeader)) {
		return fmt.Errorf("capture: %s: seek offset %d inside header", sr.f.Name(), e.Offset)
	}
	if _, err := sr.f.Seek(e.Offset, io.SeekStart); err != nil {
		return fmt.Errorf("capture: %s: %w", sr.f.Name(), err)
	}
	sr.fr.StartAt(e.Offset, e.Record, int(span))
	if fromStart {
		if err := sr.fr.Header(segHeader); err != nil {
			return fmt.Errorf("capture: %w", err)
		}
	}
	return nil
}

// RecordAt reads one record straight from a file-backed reader's
// segment whose records are all recLen bytes long, as a store's
// failures and transitions are: from e, the index entry at or before
// it, the frame of ordinal record begins
//
//	e.Offset + (record − e.Record) × (frame.Overhead + 8 + recLen)
//
// It reads that frame alone, leaving the Next stream where it was, and
// returns it when frame.Check passes it at exactly that length, kept
// in the salvage report. ok is false for anything else — a damaged
// frame, offsets the damage has shifted, the end of the file — and the
// caller reads the stride instead (Seek, Next), which refuses or
// salvages what is there.
func (sr *SegmentReader) RecordAt(e IndexEntry, record int64, recLen int) (tsMs int64, rec []byte, ok bool) {
	size := frame.Overhead + tsLen + recLen
	if cap(sr.at) < size {
		sr.at = make([]byte, size)
	}
	b := sr.at[:size]
	if _, err := sr.f.ReadAt(b, e.Offset+(record-e.Record)*int64(size)); err != nil {
		return 0, nil, false
	}
	if n, reason := frame.Check(b, tsLen); reason != "" || n != tsLen+recLen {
		return 0, nil, false
	}
	sr.fr.Report().Kept++
	return int64(binary.LittleEndian.Uint64(b[frame.Overhead:])), b[frame.Overhead+tsLen:], true
}

// Report returns the reader's salvage accounting: records kept, and
// for a lenient reader the damaged regions skipped.
func (sr *SegmentReader) Report() *salvage.Report { return sr.fr.Report() }

// Close closes the underlying file when the reader owns one.
func (sr *SegmentReader) Close() error {
	if sr.f == nil {
		return nil
	}
	return sr.f.Close()
}

// Next returns the next record. At the end of the segment it returns
// io.EOF. The returned slice aliases the reader's window.
func (sr *SegmentReader) Next() (tsMs int64, rec []byte, err error) {
	payload, err := sr.fr.Next()
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("capture: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(payload)), payload[tsLen:], nil
}

// IndexEntry is one sparse-index record: the timestamp, byte offset,
// and ordinal of a frame in the companion segment.
type IndexEntry struct {
	TsMs   int64
	Offset int64
	Record int64
}

// ReadIndex parses a sparse index. Strict, any damage is an error;
// lenient, a torn trailing entry (the crash-mid-write case) or a
// damaged header is accounted and skipped, and entries after the first
// damage are dropped — a sparse index is advisory, and the segment
// remains fully readable without it.
func ReadIndex(r io.Reader, lenient bool) ([]IndexEntry, *salvage.Report, error) {
	rep := &salvage.Report{}
	br := bufio.NewReader(r)
	hdr := make([]byte, len(idxHeader))
	if _, err := io.ReadFull(br, hdr); err != nil || string(hdr) != idxHeader {
		if !lenient {
			return nil, nil, fmt.Errorf("capture: index: bad header")
		}
		rep.Skip(1, "bad index header")
		return nil, rep, nil
	}
	var out []IndexEntry
	var raw [idxEntryLen]byte
	prevRecord := int64(-1)
	for {
		n, err := io.ReadFull(br, raw[:])
		if err == io.EOF {
			return out, rep, nil
		}
		if err != nil {
			if !lenient {
				return nil, nil, fmt.Errorf("capture: index: entry %d: torn entry (%d of %d bytes)", len(out)+1, n, idxEntryLen)
			}
			rep.Skip(len(out)+1, "torn index entry")
			return out, rep, nil
		}
		e := IndexEntry{
			TsMs:   int64(binary.LittleEndian.Uint64(raw[0:])),
			Offset: int64(binary.LittleEndian.Uint64(raw[8:])),
			Record: int64(binary.LittleEndian.Uint32(raw[16:])),
		}
		// Entries are strictly record-ordered by construction; a
		// violation means the index bytes are rotten even though the
		// entry length worked out.
		if e.Record <= prevRecord || e.Offset < int64(len(segHeader)) {
			if !lenient {
				return nil, nil, fmt.Errorf("capture: index: entry %d: implausible entry (record %d, offset %d)", len(out)+1, e.Record, e.Offset)
			}
			rep.Skip(len(out)+1, "implausible index entry")
			return out, rep, nil
		}
		prevRecord = e.Record
		out = append(out, e)
		rep.Kept++
	}
}

// Locate returns the latest index entry whose timestamp is at or
// before tsMs — the frame boundary a time-seek starts reading from —
// or false when the index is empty or every entry is later.
func Locate(idx []IndexEntry, tsMs int64) (IndexEntry, bool) {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid].TsMs <= tsMs {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return IndexEntry{}, false
	}
	return idx[lo-1], true
}

// ErrNoIndex reports a missing index file to callers that treat the
// index as advisory.
var ErrNoIndex = errors.New("capture: no index")

// LoadIndex reads a segment's index file, mapping a missing file to
// ErrNoIndex (the index is advisory; the segment alone is complete).
func LoadIndex(path string, lenient bool) ([]IndexEntry, *salvage.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNoIndex
		}
		return nil, nil, fmt.Errorf("capture: %w", err)
	}
	defer f.Close()
	return ReadIndex(f, lenient)
}
