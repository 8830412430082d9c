package capture

import (
	"bytes"
	"io"
	"testing"

	"netfail/internal/faultinject"
)

// corpusSegment builds a healthy segment stream of n records.
func corpusSegment(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString(segHeader)
	var frame []byte
	for i := 0; i < n; i++ {
		frame = appendRecord(frame[:0], int64(1000+i), []byte("record payload bytes"))
		buf.Write(frame)
	}
	return buf.Bytes()
}

// FuzzReadSegment holds what a segment adds on top of internal/frame,
// whose FuzzReader carries the framing invariants (no panic, bounded
// window, strict and lenient agreeing): every record the lenient
// reader returns re-encodes, timestamp and bytes, to a frame of the
// input, it never errors on in-memory data, and its report counts
// exactly the records returned. The seed corpus is the faultinject
// binary corruptor over a clean stream plus degenerate shapes.
func FuzzReadSegment(f *testing.F) {
	clean := corpusSegment(8)
	f.Add(clean)
	f.Add([]byte{})
	f.Add([]byte(segHeader))
	f.Add([]byte("not a segment at all"))
	for seed := int64(1); seed <= 4; seed++ {
		torn, _ := faultinject.CorruptBytes(clean, faultinject.Plan{
			Seed: seed, Rate: 0.4, Modes: []faultinject.Mode{faultinject.TornWrite},
		})
		f.Add(torn)
		truncated, _ := faultinject.CorruptBytes(clean, faultinject.Plan{
			Seed: seed, Modes: []faultinject.Mode{faultinject.TruncateFinal},
		})
		f.Add(truncated)
		mixed, _ := faultinject.CorruptBytes(clean, faultinject.Plan{Seed: seed, Rate: 0.1})
		f.Add(mixed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		lr, err := newSegmentReader(bytes.NewReader(data), "fuzz", true)
		if err != nil {
			t.Fatalf("lenient reader errored opening in-memory data: %v", err)
		}
		n := 0
		for ; ; n++ {
			tsMs, rec, err := lr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lenient reader errored on in-memory data: %v", err)
			}
			if !bytes.Contains(data, appendRecord(nil, tsMs, rec)) {
				t.Fatalf("record %d (ts %d) is not a frame of the input", n, tsMs)
			}
		}
		if rep := lr.Report(); rep.Kept != n {
			t.Fatalf("report kept %d, returned %d records", rep.Kept, n)
		}
	})
}

// FuzzReadIndex holds the same pair invariants over the sparse index.
func FuzzReadIndex(f *testing.F) {
	var buf bytes.Buffer
	buf.WriteString(idxHeader)
	var raw [idxEntryLen]byte
	for i := 0; i < 6; i++ {
		le := raw[:]
		putUint64(le[0:], uint64(1000+i*512))
		putUint64(le[8:], uint64(len(segHeader)+i*1024))
		putUint32(le[16:], uint32(i*512))
		buf.Write(le)
	}
	clean := buf.Bytes()
	f.Add(clean)
	f.Add([]byte{})
	f.Add([]byte(idxHeader))
	f.Add(clean[:len(clean)-7])
	for seed := int64(1); seed <= 3; seed++ {
		mixed, _ := faultinject.CorruptBytes(clean, faultinject.Plan{Seed: seed, Rate: 0.2})
		f.Add(mixed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		strictIdx, _, strictErr := ReadIndex(bytes.NewReader(data), false)
		lenientIdx, rep, lenientErr := ReadIndex(bytes.NewReader(data), true)
		if lenientErr != nil {
			t.Fatalf("lenient index reader errored on in-memory data: %v", lenientErr)
		}
		if rep.Kept != len(lenientIdx) {
			t.Fatalf("report kept %d, returned %d entries", rep.Kept, len(lenientIdx))
		}
		if strictErr == nil {
			if !rep.Clean() {
				t.Fatalf("strict accepted the index but lenient skipped: %s", rep)
			}
			if len(strictIdx) != len(lenientIdx) {
				t.Fatalf("strict kept %d entries, lenient %d", len(strictIdx), len(lenientIdx))
			}
			for i := range strictIdx {
				if strictIdx[i] != lenientIdx[i] {
					t.Fatalf("entry %d differs between strict and lenient", i)
				}
			}
			// Whatever the bytes, surviving entries must satisfy the
			// Locate precondition (strictly increasing records).
			for i := 1; i < len(strictIdx); i++ {
				if strictIdx[i].Record <= strictIdx[i-1].Record {
					t.Fatalf("strict index not record-ordered at %d", i)
				}
			}
		}
	})
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putUint32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
