// Package capture implements the sharded, spill-to-disk campaign
// capture format: one shard per topology domain, each holding a
// length-prefixed, CRC-framed segment per observation channel (syslog
// lines, LSP wire bytes) plus a sparse time index, tied together by a
// campaign-level manifest.
//
// The in-RAM capture slices (netsim.Campaign.Syslog / .LSPLog) cap
// campaign size long before the zero-allocation analysis hot paths
// do: a 13-month CENIC campaign fits comfortably, a 100x data-center
// fabric does not. This format converts that ceiling from RAM-bound
// to disk-bound: the simulator streams events through a bounded
// writer as the scheduler produces them, and the analysis streams
// them back shard by shard, so peak residency is one shard's working
// set, never the campaign.
//
// On-disk layout of a capture directory:
//
//	capture/
//	  manifest.json          shard list, per-shard counts and spans
//	  shard-0000/
//	    syslog.seg           framed rendered syslog lines
//	    syslog.idx           sparse time index over syslog.seg
//	    lsps.seg             framed LSP wire bytes
//	    lsps.idx             sparse time index over lsps.seg
//	  shard-0001/ ...
//
// A segment is the magic "NFSEG1\n" followed by one frame
// (internal/frame: sync marker, bounded length, CRC-32) per record,
// whose payload is a millisecond unix timestamp (i64le) followed by
// the record bytes.
//
// Records are ordered by timestamp within each shard (the spill
// writer's contract); readers stay zero-copy — Next returns a view
// into a reused buffer — because every consumer (the syslog
// Tokenizer, the LSP decoder) copies or interns what it retains.
package capture

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"netfail/internal/frame"
)

const (
	// segHeader is the segment file magic.
	segHeader = "NFSEG1\n"
	// idxHeader is the index file magic.
	idxHeader = "NFIDX1\n"
	// FormatName identifies the capture format in the manifest.
	FormatName = "NFCAP1"

	// tsLen is the payload's leading timestamp.
	tsLen = 8

	// indexEvery is the sparse-index stride: one entry per this many
	// records. 512 keeps the index ~0.004% of segment size while
	// bounding a time-seek's overshoot to a few hundred records.
	indexEvery = 512
	// idxEntryLen is ts i64le + offset u64le + record u32le.
	idxEntryLen = 8 + 8 + 4

	// SyslogSegment and LSPSegment are the per-shard segment file
	// names; their indexes swap .seg for .idx.
	SyslogSegment = "syslog.seg"
	LSPSegment    = "lsps.seg"
	SyslogIndex   = "syslog.idx"
	LSPIndex      = "lsps.idx"
)

// appendRecord appends one record's frame to dst — the encoder every
// segment write runs through one reused buffer, so a warm writer
// allocates nothing per record.
func appendRecord(dst []byte, tsMs int64, rec []byte) []byte {
	start := len(dst)
	dst = frame.Begin(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tsMs))
	dst = append(dst, rec...)
	frame.End(dst, start)
	return dst
}

// SegmentWriter streams frames to one segment file through a bounded
// buffer, maintaining the sparse time index alongside. A capture
// shard's two segments and the failure store's record streams are all
// written by it, so the CRC framing and index exist once. It is not
// safe for concurrent use.
type SegmentWriter struct {
	f   *os.File
	w   *bufio.Writer
	idx *os.File
	iw  *bufio.Writer

	frame    []byte // reused frame-encode buffer
	idxEntry [idxEntryLen]byte

	off     int64 // next frame's byte offset
	records int64
	firstMs int64
	lastMs  int64
}

// CreateSegmentFile creates (truncating) the segment file seg and its
// companion sparse index idx inside dir.
func CreateSegmentFile(dir, seg, idx string) (*SegmentWriter, error) {
	f, err := os.Create(filepath.Join(dir, seg))
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	xf, err := os.Create(filepath.Join(dir, idx))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("capture: %w", err)
	}
	s := &SegmentWriter{f: f, w: bufio.NewWriterSize(f, 256<<10), idx: xf, iw: bufio.NewWriterSize(xf, 16<<10)}
	if _, err := s.w.WriteString(segHeader); err != nil {
		s.close()
		return nil, fmt.Errorf("capture: %w", err)
	}
	s.off = int64(len(segHeader))
	if _, err := s.iw.WriteString(idxHeader); err != nil {
		s.close()
		return nil, fmt.Errorf("capture: %w", err)
	}
	return s, nil
}

// Append frames one record and returns the byte offset its frame
// starts at, where SegmentReader.RecordAt reads it back. Records must
// arrive in non-decreasing timestamp order — the index contract every
// segment reader relies on.
func (s *SegmentWriter) Append(tsMs int64, rec []byte) (off int64, err error) {
	if s.records%indexEvery == 0 {
		binary.LittleEndian.PutUint64(s.idxEntry[0:], uint64(tsMs))
		binary.LittleEndian.PutUint64(s.idxEntry[8:], uint64(s.off))
		binary.LittleEndian.PutUint32(s.idxEntry[16:], uint32(s.records))
		if _, err := s.iw.Write(s.idxEntry[:]); err != nil {
			return 0, fmt.Errorf("capture: index: %w", err)
		}
	}
	s.frame = appendRecord(s.frame[:0], tsMs, rec)
	if _, err := s.w.Write(s.frame); err != nil {
		return 0, fmt.Errorf("capture: segment: %w", err)
	}
	off = s.off
	s.off += int64(len(s.frame))
	if s.records == 0 {
		s.firstMs = tsMs
	}
	s.lastMs = tsMs
	s.records++
	return off, nil
}

// Records returns how many records have been appended.
func (s *SegmentWriter) Records() int64 { return s.records }

// Span returns the first and last appended timestamps (zero when the
// segment is empty).
func (s *SegmentWriter) Span() (firstMs, lastMs int64) { return s.firstMs, s.lastMs }

// Finish flushes and syncs the segment and index files.
func (s *SegmentWriter) Finish() error {
	var err error
	flush := func(w *bufio.Writer, f *os.File) {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
		if ferr := f.Sync(); err == nil {
			err = ferr
		}
	}
	flush(s.w, s.f)
	flush(s.iw, s.idx)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("capture: finishing segment: %w", err)
	}
	return nil
}

func (s *SegmentWriter) close() error {
	err := s.f.Close()
	if cerr := s.idx.Close(); err == nil {
		err = cerr
	}
	return err
}

// ShardWriter streams one shard's two segments. It is not safe for
// concurrent use; the sharded simulator gives each domain its own.
type ShardWriter struct {
	info   *Shard
	syslog *SegmentWriter
	lsps   *SegmentWriter
}

// AppendSyslog frames one rendered syslog line. Lines must arrive in
// non-decreasing timestamp order.
func (sw *ShardWriter) AppendSyslog(tsMs int64, line []byte) error {
	_, err := sw.syslog.Append(tsMs, line)
	return err
}

// AppendLSP frames one LSP's wire bytes. Records must arrive in
// non-decreasing timestamp order.
func (sw *ShardWriter) AppendLSP(tsMs int64, wire []byte) error {
	_, err := sw.lsps.Append(tsMs, wire)
	return err
}

// Close flushes and syncs the shard's files and records its counts
// in the campaign manifest (written by the Writer's Finish).
func (sw *ShardWriter) Close() error {
	err := sw.syslog.Finish()
	if lerr := sw.lsps.Finish(); err == nil {
		err = lerr
	}
	sw.info.SyslogRecords = sw.syslog.records
	sw.info.LSPRecords = sw.lsps.records
	sw.info.FirstMs = minNonZeroSpan(sw.syslog.firstMs, sw.lsps.firstMs, sw.syslog.records, sw.lsps.records, true)
	sw.info.LastMs = minNonZeroSpan(sw.syslog.lastMs, sw.lsps.lastMs, sw.syslog.records, sw.lsps.records, false)
	return err
}

// minNonZeroSpan folds the two segments' first/last timestamps,
// ignoring empty segments.
func minNonZeroSpan(a, b, na, nb int64, first bool) int64 {
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0:
		return b
	case nb == 0:
		return a
	case first && a < b, !first && a > b:
		return a
	}
	return b
}

// Writer manages a campaign capture directory: it hands out one
// ShardWriter per topology domain and writes the manifest once every
// shard is closed. Shard must be called in the campaign's fixed
// domain order — that order is the manifest order, and the analysis
// consumes shards in manifest order so results never depend on which
// domain's simulation finished first.
type Writer struct {
	dir    string
	shards []*Shard
	done   bool
}

// NewWriter creates (or truncates into) a capture directory.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return &Writer{dir: dir}, nil
}

// Shard opens the next shard. The name is the shard's directory;
// domain labels the topology domain it captures.
func (w *Writer) Shard(domain string, routers, links int) (*ShardWriter, error) {
	name := fmt.Sprintf("shard-%04d", len(w.shards))
	dir := filepath.Join(w.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	info := &Shard{Name: name, Domain: domain, Routers: routers, Links: links}
	sy, err := CreateSegmentFile(dir, SyslogSegment, SyslogIndex)
	if err != nil {
		return nil, err
	}
	ls, err := CreateSegmentFile(dir, LSPSegment, LSPIndex)
	if err != nil {
		sy.close()
		return nil, err
	}
	w.shards = append(w.shards, info)
	return &ShardWriter{info: info, syslog: sy, lsps: ls}, nil
}

// Finish writes the campaign manifest atomically (temp file + rename,
// so a crash mid-write never leaves a plausible half manifest). Every
// ShardWriter must be closed first.
func (w *Writer) Finish() error {
	if w.done {
		return fmt.Errorf("capture: Finish called twice")
	}
	w.done = true
	m := &Manifest{Format: FormatName}
	for _, s := range w.shards {
		m.Shards = append(m.Shards, *s)
	}
	return writeManifestFile(w.dir, m)
}
