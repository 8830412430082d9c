package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSealThenAppendThenRecover: seals interleaved with appends, then
// no Close (the SIGKILL case). Recovery replays every sealed segment in
// order; none of them is retired and no snapshot is written.
func TestSealThenAppendThenRecover(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 5 {
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantRecords(t, rec, 7)
	if rec.SnapshotSeq != 0 || rec.WALRecords != 7 || !rec.Report.Clean() {
		t.Errorf("SnapshotSeq=%d WALRecords=%d report %s, want 0, 7, clean", rec.SnapshotSeq, rec.WALRecords, rec.Report)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Errorf("seals wrote snapshots: %+v", snaps)
	}
	var starts []uint64
	for _, w := range wals {
		starts = append(starts, w.seq)
	}
	if fmt.Sprint(starts) != "[1 4 6 8]" {
		t.Errorf("WAL segments start at %v, want [1 4 6 8]: every sealed segment kept", starts)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err == nil {
		t.Error("Seal after Close succeeded")
	}
}

// TestSealKeepsParentSnapshot: a directory as the daemon left it before
// it sealed segments — snapshots of the whole history at its cadence,
// then appends, then a kill — opens, takes appends and seals, and
// recovers everything; the snapshot it started from is never deleted.
func TestSealKeepsParentSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hist []Record
	for i := 1; i <= 5; i++ {
		data := []byte(fmt.Sprintf("rec-%d", i))
		seq, err := s.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, Record{Seq: seq, Data: data})
		if i%2 == 0 {
			if err := s.Snapshot(hist); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := filepath.Join(dir, "snap-0000000000000004.ckpt")

	s2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, 5)
	if rec.SnapshotSeq != 4 {
		t.Errorf("SnapshotSeq = %d, want 4", rec.SnapshotSeq)
	}
	if _, err := s2.Append([]byte("rec-6")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Append([]byte("rec-7")); err != nil {
		t.Fatal(err)
	}

	s3, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	wantRecords(t, rec, 7)
	if rec.SnapshotSeq != 4 || rec.WALRecords != 3 || !rec.Report.Clean() {
		t.Errorf("SnapshotSeq=%d WALRecords=%d report %s, want 4, 3, clean", rec.SnapshotSeq, rec.WALRecords, rec.Report)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("the parent's snapshot is gone: %v", err)
	}
}

// TestReopenedEmptySegmentStaysClean: a seal with nothing appended
// since the last, and a restart after a clean shutdown, both reopen a
// segment that holds only its header. It must not get a second header,
// which every later recovery would account as damage (and strict
// recovery refuse).
func TestReopenedEmptySegmentStaysClean(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	for i := 0; i < 2; i++ {
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart < 3; restart++ {
		s, rec, err := Open(dir, Strict())
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		wantRecords(t, rec, 2)
		if !rec.Report.Clean() {
			t.Errorf("restart %d recovered dirty: %s", restart, rec.Report)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000003.log"))
	if err != nil || string(got) != walHeader {
		t.Errorf("empty segment holds %q (%v), want its one header", got, err)
	}
}
