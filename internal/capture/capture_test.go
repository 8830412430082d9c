package capture

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"netfail/internal/frame"
	"netfail/internal/salvage"
)

// writeShard builds one healthy shard with n syslog and m LSP records
// and returns the capture dir.
func writeShard(t testing.TB, n, m int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := w.Shard("cenic", 235, 299)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sw.AppendSyslog(int64(1000+i), []byte(fmt.Sprintf("<189>Oct 20 00:00:01 host-%d 7: line %d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		if err := sw.AppendLSP(int64(2000+i), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readAll drains a segment, returning timestamps and copied records.
func readAll(t testing.TB, sr *SegmentReader) (ts []int64, recs [][]byte) {
	t.Helper()
	for {
		ms, rec, err := sr.Next()
		if err == io.EOF {
			return ts, recs
		}
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, ms)
		recs = append(recs, append([]byte(nil), rec...))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := writeShard(t, 1300, 77)

	m, err := ReadManifestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 1 {
		t.Fatalf("got %d shards, want 1", len(m.Shards))
	}
	s := m.Shards[0]
	if s.SyslogRecords != 1300 || s.LSPRecords != 77 {
		t.Errorf("manifest counts = %d/%d, want 1300/77", s.SyslogRecords, s.LSPRecords)
	}
	if s.FirstMs != 1000 || s.LastMs != 2299 {
		t.Errorf("manifest span = [%d, %d], want [1000, 2299]", s.FirstMs, s.LastMs)
	}
	if s.Domain != "cenic" || s.Routers != 235 || s.Links != 299 {
		t.Errorf("shard meta = %+v", s)
	}
	sy, lp := m.Records()
	if sy != 1300 || lp != 77 {
		t.Errorf("manifest totals = %d/%d", sy, lp)
	}

	sr, err := OpenSegment(filepath.Join(dir, s.Name, SyslogSegment))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	ts, recs := readAll(t, sr)
	if len(recs) != 1300 {
		t.Fatalf("read %d syslog records, want 1300", len(recs))
	}
	if ts[0] != 1000 || ts[1299] != 2299 {
		t.Errorf("timestamps [%d ... %d]", ts[0], ts[1299])
	}
	if want := "<189>Oct 20 00:00:01 host-42 7: line 42"; string(recs[42]) != want {
		t.Errorf("record 42 = %q, want %q", recs[42], want)
	}

	lr, err := OpenSegment(filepath.Join(dir, s.Name, LSPSegment))
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	lts, lrecs := readAll(t, lr)
	if len(lrecs) != 77 || lts[0] != 2000 {
		t.Fatalf("read %d LSP records starting %d", len(lrecs), lts[0])
	}
	if !bytes.Equal(lrecs[5], bytes.Repeat([]byte{5}, 40)) {
		t.Errorf("LSP record 5 corrupted: %x", lrecs[5])
	}
}

func TestIsCaptureDir(t *testing.T) {
	dir := writeShard(t, 1, 1)
	if !IsCaptureDir(dir) {
		t.Error("capture dir not detected")
	}
	if IsCaptureDir(t.TempDir()) {
		t.Error("empty dir misdetected as capture")
	}
}

// TestSparseIndexSeek pins the index contract: Locate a mid-stream
// timestamp, OpenSegmentAt the returned boundary, and the tail read
// matches a full read's tail exactly.
func TestSparseIndexSeek(t *testing.T) {
	dir := writeShard(t, 3*indexEvery+17, 0)
	seg := filepath.Join(dir, "shard-0000", SyslogSegment)

	idx, _, err := LoadIndex(filepath.Join(dir, "shard-0000", SyslogIndex), false)
	if err != nil {
		t.Fatal(err)
	}
	// One entry per indexEvery records, starting at record 0.
	if want := 4; len(idx) != want {
		t.Fatalf("index has %d entries, want %d", len(idx), want)
	}
	if idx[0].Record != 0 || idx[1].Record != indexEvery {
		t.Fatalf("index records %d, %d", idx[0].Record, idx[1].Record)
	}

	full, err := OpenSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	allTs, allRecs := readAll(t, full)

	target := allTs[2*indexEvery+100]
	e, ok := Locate(idx, target)
	if !ok {
		t.Fatal("Locate found nothing")
	}
	if e.Record != 2*indexEvery {
		t.Fatalf("Locate landed on record %d, want %d", e.Record, 2*indexEvery)
	}
	sr, err := OpenSegmentAt(seg, e, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	ts, recs := readAll(t, sr)
	wantN := len(allRecs) - int(e.Record)
	if len(recs) != wantN {
		t.Fatalf("seek read %d records, want %d", len(recs), wantN)
	}
	for i := range recs {
		j := int(e.Record) + i
		if ts[i] != allTs[j] || !bytes.Equal(recs[i], allRecs[j]) {
			t.Fatalf("seek record %d differs from full read record %d", i, j)
		}
	}

	// A timestamp before the first entry has no boundary at or
	// before it.
	if _, ok := Locate(idx, allTs[0]-1); ok {
		t.Error("Locate before the first record should fail")
	}
}

// TestStrictReaderFailsRecordAccurate pins the strict error contract:
// a flipped payload byte is reported with the failing record's
// ordinal and its frame's byte offset.
func TestStrictReaderFailsRecordAccurate(t *testing.T) {
	dir := writeShard(t, 10, 0)
	seg := filepath.Join(dir, "shard-0000", SyslogSegment)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Locate record 4's frame by walking the healthy stream.
	off := int64(len(segHeader))
	sr, err := newSegmentReader(bytes.NewReader(data), "walk", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, rec, err := sr.Next(); err != nil {
			t.Fatal(err)
		} else {
			off += int64(frame.Overhead + tsLen + len(rec))
		}
	}

	// Flip a byte inside record 4's payload.
	data[off+frame.Overhead+tsLen+2] ^= 0x10
	sr2, err := newSegmentReader(bytes.NewReader(data), "damaged", false)
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	for {
		_, _, err := sr2.Next()
		if err != nil {
			gotErr = err
			break
		}
	}
	want := fmt.Sprintf("capture: damaged: record 4 at offset %d: crc mismatch", off)
	if gotErr == nil || gotErr.Error() != want {
		t.Fatalf("strict error = %v, want %q", gotErr, want)
	}

	// The lenient reader salvages everything but the damaged record.
	lr, err := newSegmentReader(bytes.NewReader(data), "damaged", true)
	if err != nil {
		t.Fatal(err)
	}
	_, recs := readAll(t, lr)
	if len(recs) != 9 {
		t.Fatalf("lenient kept %d records, want 9", len(recs))
	}
	rep := lr.Report()
	if rep.Skipped != 1 || rep.Reasons["crc mismatch"] != 1 {
		t.Errorf("salvage report: %s", rep)
	}
}

// TestLenientReaderResyncsAfterGarbage splices garbage between two
// frames; the lenient reader skips it and realigns on the next sync
// marker, while strict fails at the splice point.
func TestLenientReaderResyncsAfterGarbage(t *testing.T) {
	dir := writeShard(t, 6, 0)
	seg := filepath.Join(dir, "shard-0000", SyslogSegment)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find record 2's frame start and inject garbage there.
	off := int64(len(segHeader))
	sr, _ := newSegmentReader(bytes.NewReader(data), "walk", false)
	for i := 0; i < 2; i++ {
		_, rec, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		off += int64(frame.Overhead + tsLen + len(rec))
	}
	garbage := []byte("@@@ not a frame @@@")
	spliced := append(append(append([]byte(nil), data[:off]...), garbage...), data[off:]...)

	if _, err := newSegmentReader(bytes.NewReader(spliced), "s", false); err != nil {
		t.Fatal(err)
	}
	strict, _ := newSegmentReader(bytes.NewReader(spliced), "s", false)
	n := 0
	for {
		_, _, err := strict.Next()
		if err != nil {
			if err == io.EOF {
				t.Fatal("strict reader accepted spliced garbage")
			}
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("strict read %d records before failing, want 2", n)
	}

	lr, _ := newSegmentReader(bytes.NewReader(spliced), "s", true)
	_, recs := readAll(t, lr)
	if len(recs) != 6 {
		t.Fatalf("lenient salvaged %d records, want all 6", len(recs))
	}
	if rep := lr.Report(); rep.Clean() {
		t.Error("salvage report claims clean read over spliced garbage")
	}
}

// TestTruncatedFinalFrame mirrors the crash-mid-write case: the
// strict reader identifies the torn record; the lenient reader keeps
// everything before it.
func TestTruncatedFinalFrame(t *testing.T) {
	dir := writeShard(t, 5, 0)
	seg := filepath.Join(dir, "shard-0000", SyslogSegment)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]

	strict, _ := newSegmentReader(bytes.NewReader(torn), "torn", false)
	var gotErr error
	n := 0
	for {
		_, _, err := strict.Next()
		if err != nil {
			gotErr = err
			break
		}
		n++
	}
	if n != 4 || gotErr == io.EOF {
		t.Fatalf("strict kept %d records, err %v; want 4 and a truncation error", n, gotErr)
	}

	lr, _ := newSegmentReader(bytes.NewReader(torn), "torn", true)
	_, recs := readAll(t, lr)
	if len(recs) != 4 {
		t.Fatalf("lenient kept %d records, want 4", len(recs))
	}
	if rep := lr.Report(); rep.Reasons["truncated frame payload"] != 1 {
		t.Errorf("salvage report: %s", rep)
	}
}

// TestTornIndexWrite pins the advisory-index contract: a torn
// trailing index entry is dropped by the lenient reader (with
// accurate accounting) and rejected entry-accurately by the strict
// one, while the segment itself stays fully readable.
func TestTornIndexWrite(t *testing.T) {
	dir := writeShard(t, 2*indexEvery+5, 0)
	idxPath := filepath.Join(dir, "shard-0000", SyslogIndex)
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-5]

	if _, _, err := ReadIndex(bytes.NewReader(torn), false); err == nil {
		t.Fatal("strict index reader accepted a torn entry")
	}
	idx, rep, err := ReadIndex(bytes.NewReader(torn), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("lenient index kept %d entries, want 2", len(idx))
	}
	if rep.Reasons["torn index entry"] != 1 {
		t.Errorf("salvage report: %s", rep)
	}

	// The segment is complete without the index.
	sr, err := OpenSegment(filepath.Join(dir, "shard-0000", SyslogSegment))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, recs := readAll(t, sr); len(recs) != 2*indexEvery+5 {
		t.Fatalf("segment read %d records", len(recs))
	}
}

func TestLoadIndexMissingIsAdvisory(t *testing.T) {
	if _, _, err := LoadIndex(filepath.Join(t.TempDir(), "nope.idx"), false); err != ErrNoIndex {
		t.Fatalf("missing index: %v, want ErrNoIndex", err)
	}
}

// TestManifestLenientGarbage: the lenient read is salvage.JSONObject
// in front of the strict reader — garbage around the JSON object is
// skipped and accounted; damage inside stays fatal.
func TestManifestLenientGarbage(t *testing.T) {
	dir := writeShard(t, 1, 1)
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	noisy := append([]byte("### log prefix\n"), raw...)
	noisy = append(noisy, []byte("trailing junk\n")...)
	obj, rep, ok := salvage.JSONObject(noisy)
	if !ok {
		t.Fatal("no JSON object salvaged")
	}
	m, err := ReadManifest(bytes.NewReader(obj))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 1 || rep.Skipped != 2 {
		t.Errorf("shards %d, skipped %d", len(m.Shards), rep.Skipped)
	}
	if _, _, ok := salvage.JSONObject([]byte("no json here")); ok {
		t.Error("manifest with no object should fail even leniently")
	}
	if _, err := ReadManifest(bytes.NewReader([]byte(`{"format":"WRONG","shards":[]}`))); err == nil {
		t.Error("wrong format tag should fail")
	}
}

// TestLengthFlipCostsOneRecord is the segment's row of
// internal/frame's damage table. At the parent a flipped length bit
// made the reader trust the length: 567 of these 1,000 records kept,
// two skips reported.
func TestLengthFlipCostsOneRecord(t *testing.T) {
	data := corpusSegment(1000)
	frameLen := len(appendRecord(nil, 0, []byte("record payload bytes")))
	data[len(segHeader)+9*frameLen+3] ^= 0x40 // record 10, bit 14 of len
	lr, err := newSegmentReader(bytes.NewReader(data), "flip", true)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := readAll(t, lr)
	if rep := lr.Report(); len(ts) != 999 || rep.Skipped != 1 || ts[9] != 1010 {
		t.Errorf("kept %d records (%s), want 999 with record 10 the one lost", len(ts), rep)
	}
}

// TestGoldenBytes pins the NFSEG1 and NFIDX1 formats to bytes written
// at the commit before internal/frame existed: today's writer must
// produce them and today's reader must decode them.
func TestGoldenBytes(t *testing.T) {
	wantSeg, _ := hex.DecodeString("4e46534547310a" +
		"a55a1000000018043034" + "e803000000000000" + "6c696e65206f6e65" +
		"a55a08000000befb55c8" + "e903000000000000" +
		"a55a0b0000002469509f" + "fbffffffffffffff" + "a55aff")
	wantIdx, _ := hex.DecodeString("4e46494458310a" + "e803000000000000" + "0700000000000000" + "00000000")
	ts := []int64{1000, 1001, -5}
	recs := [][]byte{[]byte("line one"), nil, {0xA5, 0x5A, 0xFF}}

	dir := t.TempDir()
	sw, err := CreateSegmentFile(dir, "a.seg", "a.idx")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{7, 33, 51} { // where each frame starts
		if off, err := sw.Append(ts[i], recs[i]); err != nil || off != want {
			t.Fatalf("record %d appended at offset %d (%v), want %d", i, off, err, want)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "a.seg")); err != nil || !bytes.Equal(got, wantSeg) {
		t.Errorf("segment bytes\n got %x\nwant %x (%v)", got, wantSeg, err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "a.idx")); err != nil || !bytes.Equal(got, wantIdx) {
		t.Errorf("index bytes\n got %x\nwant %x (%v)", got, wantIdx, err)
	}

	for _, lenient := range []bool{false, true} {
		sr, err := newSegmentReader(bytes.NewReader(wantSeg), "golden", lenient)
		if err != nil {
			t.Fatal(err)
		}
		gotTs, gotRecs := readAll(t, sr)
		if rep := sr.Report(); !rep.Clean() || rep.Kept != 3 || len(gotTs) != 3 {
			t.Fatalf("lenient=%v: %d records, %s", lenient, len(gotTs), rep)
		}
		for i := range ts {
			if gotTs[i] != ts[i] || !bytes.Equal(gotRecs[i], recs[i]) {
				t.Errorf("lenient=%v: record %d = %d %q", lenient, i, gotTs[i], gotRecs[i])
			}
		}
		idx, rep, err := ReadIndex(bytes.NewReader(wantIdx), lenient)
		if err != nil || !rep.Clean() || len(idx) != 1 || idx[0] != (IndexEntry{TsMs: 1000, Offset: 7}) {
			t.Errorf("lenient=%v: index %+v, %s, %v", lenient, idx, rep, err)
		}
	}
}

// TestWriterAllocs pins the steady-state writer: a warm segment
// writer appends with zero heap allocations per record (the frame
// buffer and index entry are reused; bufio absorbs the writes).
func TestWriterAllocs(t *testing.T) {
	dir := t.TempDir()
	sw, err := CreateSegmentFile(dir, "a.seg", "a.idx")
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0x42}, 120)
	if _, err := sw.Append(1, rec); err != nil {
		t.Fatal(err)
	}
	ts := int64(2)
	avg := testing.AllocsPerRun(200, func() {
		if _, err := sw.Append(ts, rec); err != nil {
			t.Fatal(err)
		}
		ts++
	})
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	// bufio flushes inside the measured region are I/O, not heap
	// growth; the budget absorbs the occasional flush bookkeeping.
	if avg > 0.05 {
		t.Errorf("steady-state append allocates %.3f per record, budget 0.05", avg)
	}
}

func BenchmarkSegmentAppend(b *testing.B) {
	dir := b.TempDir()
	sw, err := CreateSegmentFile(dir, "b.seg", "b.idx")
	if err != nil {
		b.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0x42}, 120)
	b.SetBytes(int64(frame.Overhead + tsLen + len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Append(int64(i), rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sw.Finish(); err != nil {
		b.Fatal(err)
	}
}

const benchSegmentRecords = 4096

// benchSegmentRead returns one op — a zero-copy read of an in-memory
// segment of benchSegmentRecords, end to end — and the segment's size
// in bytes.
func benchSegmentRead(tb testing.TB) (op func(), size int64) {
	var buf bytes.Buffer
	buf.WriteString(segHeader)
	rec := bytes.Repeat([]byte{0x42}, 120)
	var fb []byte
	for i := 0; i < benchSegmentRecords; i++ {
		fb = appendRecord(fb[:0], int64(i), rec)
		buf.Write(fb)
	}
	data := buf.Bytes()
	return func() {
		sr, err := newSegmentReader(bytes.NewReader(data), "bench", false)
		if err != nil {
			tb.Fatal(err)
		}
		got := 0
		for {
			_, _, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				tb.Fatal(err)
			}
			got++
		}
		if got != benchSegmentRecords {
			tb.Fatalf("read %d records", got)
		}
	}, int64(len(data))
}

func BenchmarkSegmentRead(b *testing.B) {
	op, size := benchSegmentRead(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(benchSegmentRecords, "records/op")
}

// TestSegmentReadAllocBudget pins the zero-copy reader: buffer growth
// amortized over the 4096 records of a segment, nothing per record.
func TestSegmentReadAllocBudget(t *testing.T) {
	op, _ := benchSegmentRead(t)
	if avg := testing.AllocsPerRun(10, op); avg > 16 {
		t.Errorf("reading a 4096-record segment allocates %.0f times, budget is 16", avg)
	}
}

// TestManifestStrictRejectsTrailingGarbage: the strict reader refuses
// bytes after the JSON object, the same bytes a lenient read accounts
// as skipped.
func TestManifestStrictRejectsTrailingGarbage(t *testing.T) {
	dir := writeShard(t, 1, 1)
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bytes.NewReader(append(raw, " \n\t"...))); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
	dirty := append(raw, "GARBAGE{{{"...)
	if err := os.WriteFile(filepath.Join(dir, ManifestName), dirty, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestDir(dir); err == nil {
		t.Error("strict read accepted a manifest with trailing garbage")
	}
	if _, rep, ok := salvage.JSONObject(dirty); !ok || rep.Skipped != 1 {
		t.Errorf("lenient read: ok %v, report %+v; want the garbage skipped", ok, rep)
	}
}
