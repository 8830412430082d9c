package checkpoint

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netfail/internal/frame"
	"netfail/internal/salvage"
)

// appendN appends records "rec-1".."rec-n" and returns the sequences.
func appendN(t *testing.T, s *Store, n int) []uint64 {
	t.Helper()
	var seqs []uint64
	for i := 1; i <= n; i++ {
		seq, err := s.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// wantRecords asserts rec holds exactly records seq 1..n in order with
// the appendN payloads.
func wantRecords(t *testing.T, rec *Recovery, n int) {
	t.Helper()
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if want := fmt.Sprintf("rec-%d", i+1); string(r.Data) != want {
			t.Errorf("record %d data = %q, want %q", i, r.Data, want)
		}
	}
}

func TestAppendThenRecoverWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.LastSeq() != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	seqs := appendN(t, s, 5)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Errorf("append %d returned seq %d", i+1, seq)
		}
	}
	// No Close: simulate SIGKILL. Append promises kernel durability, so
	// reopening the same files must see everything.
	s2, rec2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantRecords(t, rec2, 5)
	if rec2.WALRecords != 5 || rec2.SnapshotSeq != 0 {
		t.Errorf("WALRecords=%d SnapshotSeq=%d, want 5, 0", rec2.WALRecords, rec2.SnapshotSeq)
	}
	if !rec2.Report.Clean() {
		t.Errorf("clean store recovered dirty: %s", rec2.Report)
	}
	// Sequences continue, not restart.
	if seq, err := s2.Append([]byte("rec-6")); err != nil || seq != 6 {
		t.Errorf("post-recovery append: seq=%d err=%v, want 6", seq, err)
	}
}

func TestSnapshotThenAppendThenRecover(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	var hist []Record
	for i := 1; i <= 3; i++ {
		hist = append(hist, Record{Seq: uint64(i), Data: []byte(fmt.Sprintf("rec-%d", i))})
	}
	if err := s.Snapshot(hist); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 5; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 5)
	if rec.SnapshotSeq != 3 || rec.WALRecords != 2 {
		t.Errorf("SnapshotSeq=%d WALRecords=%d, want 3, 2", rec.SnapshotSeq, rec.WALRecords)
	}
}

func TestSnapshotRetiresCoveredFiles(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	if err := s.Snapshot([]Record{{Seq: 1, Data: []byte("rec-1")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]Record{{Seq: 1, Data: []byte("rec-1")}}); err != nil {
		t.Fatal(err)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Errorf("%d snapshots on disk after two snapshots, want the older retired", len(snaps))
	}
	// Only the fresh (empty) post-snapshot segment may remain.
	if len(wals) != 1 || wals[0].seq != 4 {
		t.Errorf("WAL segments = %+v, want only wal-...4", wals)
	}
}

// TestRecoveryDeduplicatesSnapshotWALOverlap covers the crash window
// between "snapshot renamed into place" and "covered WAL segments
// retired": both files hold seqs 1..3, and recovery must count each
// sequence once.
func TestRecoveryDeduplicatesSnapshotWALOverlap(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write the snapshot the way Snapshot would have, but leave
	// the overlapping WAL segment in place (the un-retired crash state).
	var buf bytes.Buffer
	var hist []Record
	for i := 1; i <= 3; i++ {
		hist = append(hist, Record{Seq: uint64(i), Data: []byte(fmt.Sprintf("rec-%d", i))})
	}
	if err := writeSnapshot(&buf, 3, hist); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000003.ckpt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 5)
	if rec.SnapshotSeq != 3 || rec.WALRecords != 2 {
		t.Errorf("SnapshotSeq=%d WALRecords=%d, want 3, 2 (seqs 1-3 deduplicated)", rec.SnapshotSeq, rec.WALRecords)
	}
}

// TestTornSnapshotWriteFailsAndFallsBack: a snapshot write torn 40
// bytes in — mid-meta-frame — leaves undecodable garbage behind a
// valid header in a temp file that was never renamed into place.
// Recovery deletes it and the WAL still recovers everything.
func TestTornSnapshotWriteFailsAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := writeSnapshot(&snap, 1, []Record{{Seq: 1, Data: []byte("rec-1")}}); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "snap-0000000000000001.ckpt.123.tmp")
	if err := os.WriteFile(torn, snap.Bytes()[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 3)
	if !rec.Report.Clean() || rec.SnapshotSeq != 0 {
		t.Errorf("recovery after a torn, unrenamed snapshot: snapshot seq %d, %s", rec.SnapshotSeq, rec.Report)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("the torn temp file is still on disk (%v)", err)
	}
}

func TestDamagedNewestSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	var hist []Record
	for i := 1; i <= 3; i++ {
		hist = append(hist, Record{Seq: uint64(i), Data: []byte(fmt.Sprintf("rec-%d", i))})
	}
	if err := s.Snapshot(hist); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer snapshot damaged on disk (bit rot, torn rename on a
	// non-atomic filesystem): header intact, frames garbage.
	damaged := append([]byte(snapHeader), bytes.Repeat([]byte{0xFF}, 64)...)
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000004.ckpt"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	// Lenient: fall back to the older intact snapshot, accounting the
	// damage.
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 3)
	if rec.SnapshotSeq != 3 {
		t.Errorf("SnapshotSeq = %d, want fallback to 3", rec.SnapshotSeq)
	}
	if rec.Report.Clean() {
		t.Error("damaged snapshot not accounted in the salvage report")
	}

	// Strict: the damage is an error, not a silent fallback.
	if _, _, err := Open(dir, Strict()); err == nil {
		t.Error("strict recovery accepted a damaged snapshot")
	}
}

func TestTornWALTailIsSalvagedLeniently(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final frame: chop the segment's last 4 bytes, the
	// SIGKILL-mid-write shape.
	_, wals, err := scanDir(dir)
	if err != nil || len(wals) != 1 {
		t.Fatalf("wals=%v err=%v", wals, err)
	}
	data, err := os.ReadFile(wals[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wals[0].path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 4)
	if rec.Report.Clean() || rec.Report.Skipped != 1 {
		t.Errorf("torn tail accounting: %s, want 1 skip", rec.Report)
	}
	if rec.Report.Reasons["truncated frame payload"] != 1 {
		t.Errorf("skip reasons = %v, want truncated frame payload", rec.Report.Reasons)
	}

	// Strict recovery must refuse the same directory.
	if _, _, err := Open(dir, Strict()); err == nil || !strings.Contains(err.Error(), "truncated frame payload") {
		t.Errorf("strict recovery of torn tail: %v", err)
	}
}

func TestMidSegmentCorruptionResynchronizes(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, wals, err := scanDir(dir)
	if err != nil || len(wals) != 1 {
		t.Fatalf("wals=%v err=%v", wals, err)
	}
	data, err := os.ReadFile(wals[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record 3: its CRC fails, records 4 and 5
	// must still be found via resync. Frames here are fixed-size
	// (5-byte "rec-N" payloads), so locate frame 3 arithmetically.
	frameLen := frame.Overhead + seqLen + len("rec-1")
	off := len(walHeader) + 2*frameLen + frame.Overhead + seqLen // third frame's data bytes
	data[off] ^= 0xFF
	if err := os.WriteFile(wals[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want 4 (seq 3 lost)", len(rec.Records))
	}
	wantSeqs := []uint64{1, 2, 4, 5}
	for i, r := range rec.Records {
		if r.Seq != wantSeqs[i] {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, wantSeqs[i])
		}
	}
	if rec.Report.Reasons["crc mismatch"] != 1 {
		t.Errorf("skip reasons = %v, want one crc mismatch", rec.Report.Reasons)
	}
}

// TestStrictReaderErrorsRecordAccurately pins the strict error shape:
// the failing record's ordinal and its frame's absolute file offset
// (header included), the number an operator gives to xxd -s.
func TestStrictReaderErrorsRecordAccurately(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(walHeader)
	buf.Write(appendRecord(nil, 1, []byte("alpha")))
	buf.Write(appendRecord(nil, 2, []byte("beta")))
	frame3 := appendRecord(nil, 3, []byte("gamma"))
	frame3[len(frame3)-1] ^= 0xFF // corrupt record 3's payload
	offset3 := buf.Len()
	buf.Write(frame3)

	_, err := readRecords(bytes.NewReader(buf.Bytes()), "wal-1.log", walHeader, false, nil)
	want := fmt.Sprintf("checkpoint: wal-1.log: record 3 at offset %d: crc mismatch", offset3)
	if err == nil || err.Error() != want {
		t.Errorf("strict error %v, want %q", err, want)
	}

	rep := &salvage.Report{}
	records, err := readRecords(bytes.NewReader(buf.Bytes()), "wal-1.log", walHeader, true, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || rep.Kept != 2 || rep.Skipped != 1 {
		t.Errorf("lenient: %d records, %s", len(records), rep)
	}
}

// TestLengthFlipCostsOneRecord is the WAL's row of internal/frame's
// damage table: a flipped length bit loses the record it sits in and
// nothing after it.
func TestLengthFlipCostsOneRecord(t *testing.T) {
	data := corpusWAL(50)
	frameLen := len(appendRecord(nil, 1, []byte("payload-1")))
	data[len(walHeader)+9*frameLen+3] ^= 0x40 // record 10, bit 14 of len
	rep := &salvage.Report{}
	records, err := readRecords(bytes.NewReader(data), "WAL", walHeader, true, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 49 || rep.Skipped != 1 || records[9].Seq != 11 {
		t.Errorf("kept %d records (%s), want 49 with seq 10 the one lost", len(records), rep)
	}
}

// TestGoldenBytes pins the NFWAL1 and NFSNAP1 formats to bytes written
// at the commit before internal/frame existed: today's writer must
// produce them and today's reader must decode them.
func TestGoldenBytes(t *testing.T) {
	const (
		wal = "4e4657414c310a" +
			"a55a0d000000705120c4" + "0100000000000000" + "616c706861" +
			"a55a0800000014d80727" + "0200000000000000" +
			"a55a0b00000035128040" + "0300000000000000" + "a55aff"
		snapMeta = "4e46534e4150310a" +
			"a55a1000000044f8fc4b" + "0300000000000000" + "0300000000000000"
	)
	records := []Record{{1, []byte("alpha")}, {2, nil}, {3, []byte{0xA5, 0x5A, 0xFF}}}
	wantWAL, _ := hex.DecodeString(wal)
	wantSnap, _ := hex.DecodeString(snapMeta + wal[len("4e4657414c310a"):])

	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if _, err := s.Append(r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil || !bytes.Equal(got, wantWAL) {
		t.Errorf("WAL bytes\n got %x\nwant %x (%v)", got, wantWAL, err)
	}
	var snap bytes.Buffer
	if err := writeSnapshot(&snap, 3, records); err != nil || !bytes.Equal(snap.Bytes(), wantSnap) {
		t.Errorf("snapshot bytes\n got %x\nwant %x (%v)", snap.Bytes(), wantSnap, err)
	}

	for _, lenient := range []bool{false, true} {
		rep := &salvage.Report{}
		back, err := readRecords(bytes.NewReader(wantWAL), "WAL", walHeader, lenient, rep)
		if err != nil || !rep.Clean() || len(back) != len(records) {
			t.Fatalf("lenient=%v: %d records, %s, %v", lenient, len(back), rep, err)
		}
		for i, r := range back {
			if r.Seq != records[i].Seq || !bytes.Equal(r.Data, records[i].Data) {
				t.Errorf("lenient=%v: record %d = %+v", lenient, i, r)
			}
		}
	}
	path := filepath.Join(dir, "snap-0000000000000003.ckpt")
	if err := os.WriteFile(path, wantSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	back, covered, err := readSnapshot(path)
	if err != nil || covered != 3 || len(back) != 3 || string(back[0].Data) != "alpha" {
		t.Errorf("snapshot read back %d records, covered %d, %v", len(back), covered, err)
	}
}

func TestFsyncEachAndSyncSucceed(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, FsyncEach())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("late")); err == nil {
		t.Error("append after Close succeeded")
	}
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 2)
}

// TestAppendBatchIsAppendsInOneWrite: batches of 3 and 2 under
// FsyncEach leave the WAL byte for byte what five Appends leave, and
// return each batch's last sequence.
func TestAppendBatchIsAppendsInOneWrite(t *testing.T) {
	oneDir, batchDir := t.TempDir(), t.TempDir()
	one, _, err := Open(oneDir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, one, 5)
	batch, _, err := Open(batchDir, FsyncEach())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct{ lo, n int }{{0, 3}, {3, 2}} {
		last, err := batch.AppendBatch(b.n, func(dst []byte, i int) []byte {
			return fmt.Appendf(dst, "rec-%d", b.lo+i+1)
		})
		if err != nil || last != uint64(b.lo+b.n) {
			t.Fatalf("AppendBatch(%d) = %d, %v; want %d", b.n, last, err, b.lo+b.n)
		}
	}
	for _, s := range []*Store{one, batch} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const wal = "wal-0000000000000001.log"
	want, _ := os.ReadFile(filepath.Join(oneDir, wal))
	got, _ := os.ReadFile(filepath.Join(batchDir, wal))
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("batched WAL (%d bytes) differs from per-record appends' (%d bytes)", len(got), len(want))
	}
	_, rec, err := Open(batchDir, Strict())
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 5)
}

func TestScanDirDeletesTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap-12345.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp file survived the scan: %v", err)
	}
}
