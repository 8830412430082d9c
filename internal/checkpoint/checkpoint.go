// Package checkpoint gives the serving path crash-safe state: a
// length-prefixed, CRC-framed append WAL whose segments are sealed,
// never rewritten.
//
// The paper's listener ran unattended for 13 months and its own
// outages had to be sanitized out of the trace after the fact (§3.3);
// the availability literature (Simache & Kaâniche, PAPERS.md) shows
// reboot windows are exactly the intervals a log-based monitor must
// not silently lose. The discipline here is the classic one:
//
//   - every ingested record is appended to the WAL and flushed to the
//     kernel before it is acknowledged, so a SIGKILL loses nothing
//     that was acked (FsyncEach upgrades that to power-loss safety);
//     a group of records goes in one write(2), and one fsync, with
//     AppendBatch, which Append is the one-record case of;
//   - a seal fsyncs the active segment, starts the next one and fsyncs
//     the directory, so everything before it survives power loss at a
//     cost that does not grow with the history on disk;
//   - recovery loads the newest intact snapshot, if a state directory
//     written before segments were sealed holds one, and replays WAL
//     records with later sequence numbers, deduplicating by sequence.
//
// Records are framed by internal/frame (sync marker, length prefix,
// CRC-32 over the payload): strict recovery errors record- and
// offset-accurately on the first damaged frame, lenient recovery
// salvages every frame that validates and accounts the rest in a
// salvage.Report.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netfail/internal/atomicfile"
	"netfail/internal/frame"
	"netfail/internal/salvage"
)

// On-disk format: the file magic, then one frame (internal/frame) per
// record whose payload is seq u64le | data.
const (
	walHeader  = "NFWAL1\n"
	snapHeader = "NFSNAP1\n"
	seqLen     = 8
)

// A Record is one durably logged payload with its sequence number.
// Sequences are contiguous from 1 in a healthy store; recovery after
// salvage may expose gaps, which the Report accounts.
type Record struct {
	Seq  uint64
	Data []byte
}

// options carries Open's configuration.
type options struct {
	strict    bool
	fsyncEach bool
}

// Option configures Open.
type Option func(*options)

// Strict makes recovery fail record-accurately on the first damaged
// frame instead of salvaging around it.
func Strict() Option { return func(o *options) { o.strict = true } }

// FsyncEach upgrades Append durability from kill-safe (flushed to the
// kernel) to power-loss-safe (fsynced) at one fsync per write.
func FsyncEach() Option { return func(o *options) { o.fsyncEach = true } }

// Recovery describes what Open reconstructed from disk.
type Recovery struct {
	// Records is the full recovered history in sequence order:
	// snapshot records first, then WAL records with later sequences.
	Records []Record
	// SnapshotSeq is the highest sequence the loaded snapshot covers
	// (0 when no snapshot was usable).
	SnapshotSeq uint64
	// WALRecords is how many of Records came from WAL replay.
	WALRecords int
	// Report accounts every frame lenient recovery had to skip —
	// torn tails, CRC mismatches, damaged snapshots. Clean() means
	// the store was intact.
	Report *salvage.Report
}

// LastSeq returns the highest recovered sequence number.
func (r *Recovery) LastSeq() uint64 {
	if n := len(r.Records); n > 0 {
		return r.Records[n-1].Seq
	}
	return r.SnapshotSeq
}

// A Store is an open checkpoint directory: the active WAL segment plus
// the sealed ones recovery reads. Store methods are not safe for
// concurrent use; the serving layer serializes appends.
type Store struct {
	dir string
	opt options

	wal      *os.File
	seq      uint64 // last appended (or recovered) sequence
	frameBuf []byte // reused frame encoding buffer; grows to the largest record
}

// Open recovers the checkpoint directory (creating it if needed) and
// returns a store ready to append, plus what was recovered. Appends go
// to the segment named for the next sequence, so a torn tail in an
// earlier segment is never appended to.
func Open(dir string, opts ...Option) (*Store, *Recovery, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	rec, err := recoverDir(dir, !o.strict)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, opt: o, seq: rec.LastSeq()}
	if err := s.openSegment(); err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// openSegment starts the WAL segment for the next sequence and fsyncs
// the directory. One of that name may exist already, with no record
// past seq (left empty by a seal or shutdown, or its frames damaged):
// it is appended to, never given a second header.
func (s *Store) openSegment() error {
	name := filepath.Join(s.dir, fmt.Sprintf("wal-%016x.log", s.seq+1))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	info, err := f.Stat()
	if err == nil && info.Size() == 0 {
		_, err = f.WriteString(walHeader)
	}
	if err == nil {
		err = atomicfile.SyncDir(s.dir)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.wal = f
	return nil
}

// Append logs one record and returns its sequence number: AppendBatch
// with n = 1.
func (s *Store) Append(data []byte) (uint64, error) {
	return s.AppendBatch(1, func(dst []byte, _ int) []byte { return append(dst, data...) })
}

// AppendBatch logs n records with one write(2) and returns the last
// one's sequence number. encode appends record i's data to dst and
// returns it; the frames are laid back to back in a buffer the store
// reuses, so the steady-state ingest path allocates nothing per batch.
// On return every record has reached the kernel (surviving SIGKILL);
// with FsyncEach one fsync has taken them to the disk (surviving power
// loss). On error none is counted: a torn batch is what recovery
// salvages around.
func (s *Store) AppendBatch(n int, encode func(dst []byte, i int) []byte) (uint64, error) {
	if s.wal == nil {
		return 0, fmt.Errorf("checkpoint: store is closed")
	}
	buf := s.frameBuf[:0]
	for i := 0; i < n; i++ {
		start := len(buf)
		buf = frame.Begin(buf)
		buf = binary.LittleEndian.AppendUint64(buf, s.seq+uint64(i)+1)
		buf = encode(buf, i)
		frame.End(buf, start)
	}
	s.frameBuf = buf
	if _, err := s.wal.Write(buf); err != nil {
		return 0, fmt.Errorf("checkpoint: append seq %d: %w", s.seq+1, err)
	}
	if s.opt.fsyncEach {
		if err := s.wal.Sync(); err != nil {
			return 0, fmt.Errorf("checkpoint: append seq %d: %w", s.seq+1, err)
		}
	}
	s.seq += uint64(n)
	return s.seq, nil
}

// Seal makes everything appended so far power-loss durable and starts
// the next segment: it fsyncs the active segment, closes it, opens
// wal-<seq+1> and fsyncs the directory. Its cost is one segment's
// fsync, whatever the history. Sealed segments are never retired;
// they are the log recovery replays.
func (s *Store) Seal() error {
	if s.wal == nil {
		return fmt.Errorf("checkpoint: store is closed")
	}
	if err := s.Close(); err != nil {
		return err
	}
	return s.openSegment()
}

// Snapshot atomically persists the full history (sequence order,
// normally 1 through the last appended sequence) and retires the WAL
// segments it covers. After a successful snapshot, recovery needs only
// this file plus whatever arrives later. The daemon no longer calls it
// (it seals segments); recovery still reads the snapshots earlier
// daemons wrote.
func (s *Store) Snapshot(records []Record) error {
	if s.wal == nil {
		return fmt.Errorf("checkpoint: store is closed")
	}
	covered := s.seq
	err := atomicfile.Write(s.dir, fmt.Sprintf("snap-%016x.ckpt", covered), func(w io.Writer) error {
		return writeSnapshot(w, covered, records)
	})
	if err != nil {
		return fmt.Errorf("checkpoint: snapshot: %w", err)
	}

	// The snapshot is durable; everything it covers is redundant.
	// Rotate to a fresh WAL segment and delete retired files. A crash
	// anywhere in here is safe: recovery deduplicates by sequence.
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("checkpoint: snapshot: %w", err)
	}
	s.wal = nil
	if err := s.openSegment(); err != nil {
		return err
	}
	s.retire(covered)
	return nil
}

// retire removes snapshots older than the one covering `covered` and
// WAL segments that start at or before it (their records are all
// covered: segments are rotated at every snapshot, so a segment
// starting at seq <= covered holds only seqs <= covered). Removal
// failures are ignored: stale files only cost recovery time, and the
// next snapshot retries.
func (s *Store) retire(covered uint64) {
	snaps, wals, _ := scanDir(s.dir)
	for _, sn := range snaps {
		if sn.seq < covered {
			os.Remove(sn.path)
		}
	}
	for _, w := range wals {
		if w.seq <= covered {
			os.Remove(w.path)
		}
	}
}

// Close syncs and closes the active WAL segment.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	if err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	return nil
}

// appendRecord appends one record's frame to dst, the layout
// AppendBatch lays down n times: the snapshot writer's encoder.
func appendRecord(dst []byte, seq uint64, data []byte) []byte {
	start := len(dst)
	dst = frame.Begin(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, data...)
	frame.End(dst, start)
	return dst
}

// writeSnapshot writes the snapshot stream: header, a meta frame
// (seq = covered, data = record count), then every record frame, all
// encoded through one buffer that grows to the largest record.
func writeSnapshot(w io.Writer, covered uint64, records []Record) error {
	if _, err := io.WriteString(w, snapHeader); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(len(records)))
	buf := appendRecord(nil, covered, count[:])
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, r := range records {
		buf = appendRecord(buf[:0], r.Seq, r.Data)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// dirEntry is one scanned snapshot or WAL file.
type dirEntry struct {
	seq  uint64
	path string
}

// scanDir inventories the checkpoint directory. Temp files from torn
// snapshot attempts are deleted on sight — the rename never happened,
// so they are garbage by construction.
func scanDir(dir string) (snaps, wals []dirEntry, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(path)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ckpt"):
			if seq, ok := parseSeq(name, "snap-", ".ckpt"); ok {
				snaps = append(snaps, dirEntry{seq, path})
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				wals = append(wals, dirEntry{seq, path})
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq }) // newest first
	sort.Slice(wals, func(i, j int) bool { return wals[i].seq < wals[j].seq })    // oldest first
	return snaps, wals, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseUint(hexpart, 16, 64)
	return seq, err == nil
}

// recoverDir reconstructs the durable history: newest intact
// snapshot, then WAL replay of later sequences.
func recoverDir(dir string, lenient bool) (*Recovery, error) {
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{Report: &salvage.Report{}}

	// Newest snapshot that loads intact wins; older ones are the
	// fallback when a torn or bit-rotted write damaged the newest.
	for _, sn := range snaps {
		records, covered, err := readSnapshot(sn.path)
		if err != nil {
			if !lenient {
				return nil, err
			}
			rec.Report.Skip(0, fmt.Sprintf("damaged snapshot %s", filepath.Base(sn.path)))
			continue
		}
		rec.Records = records
		rec.SnapshotSeq = covered
		break
	}

	// Replay WAL segments in start order, keeping only sequences
	// beyond what the snapshot covers (and beyond each other:
	// overlapping segments from a crash between rename and retire
	// deduplicate here).
	last := rec.LastSeq()
	for _, w := range wals {
		records, err := readFile(w.path, walHeader, lenient, rec.Report)
		if err != nil {
			return nil, err
		}
		for _, r := range records {
			if r.Seq <= last {
				continue
			}
			rec.Records = append(rec.Records, r)
			rec.WALRecords++
			last = r.Seq
		}
	}
	return rec, nil
}

// readSnapshot loads one snapshot file. Any damage fails the whole
// load — the caller falls back to an older snapshot (lenient) or
// errors (strict): a partial history behind a healthy-looking
// snapshot would silently un-ack records, which is the one
// unforgivable outcome, so there is deliberately no salvaging inside
// a snapshot.
func readSnapshot(path string) ([]Record, uint64, error) {
	frames, err := readFile(path, snapHeader, false, nil)
	if err != nil {
		return nil, 0, err
	}
	name := filepath.Base(path)
	if len(frames) == 0 {
		return nil, 0, fmt.Errorf("checkpoint: %s: missing meta frame", name)
	}
	meta := frames[0]
	if len(meta.Data) != 8 {
		return nil, 0, fmt.Errorf("checkpoint: %s: bad meta frame", name)
	}
	count := binary.LittleEndian.Uint64(meta.Data)
	records := frames[1:]
	if uint64(len(records)) != count {
		return nil, 0, fmt.Errorf("checkpoint: %s: snapshot holds %d records, meta declares %d", name, len(records), count)
	}
	return records, meta.Seq, nil
}

// readFile loads every record of one WAL segment or snapshot file,
// errors labelled with the file's name.
func readFile(path, magic string, lenient bool, rep *salvage.Report) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return readRecords(f, filepath.Base(path), magic, lenient, rep)
}

// readRecords parses one record stream behind its magic. Strict, the
// first damaged frame aborts with a record- and offset-accurate error;
// lenient, damage is skipped and accounted in rep (see internal/frame).
func readRecords(r io.Reader, name, magic string, lenient bool, rep *salvage.Report) ([]Record, error) {
	fr := frame.NewReader(r, name, seqLen, lenient, rep)
	if err := fr.Header(magic); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []Record
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		out = append(out, Record{
			Seq:  binary.LittleEndian.Uint64(payload),
			Data: append([]byte(nil), payload[seqLen:]...),
		})
	}
}
