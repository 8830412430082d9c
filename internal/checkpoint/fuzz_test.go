package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"netfail/internal/faultinject"
	"netfail/internal/salvage"
)

// corpusWAL builds a healthy WAL stream of n records.
func corpusWAL(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString(walHeader)
	for i := 1; i <= n; i++ {
		buf.Write(appendRecord(nil, uint64(i), []byte(fmt.Sprintf("payload-%d", i))))
	}
	return buf.Bytes()
}

// FuzzReadWAL holds what the WAL adds on top of internal/frame, whose
// FuzzReader carries the framing invariants (no panic, bounded window,
// strict and lenient agreeing): records decoded out of the reader's
// window are copies that stay intact, sequence and data, once the
// window has moved on, and the report passed in counts exactly the
// records returned. The seed corpus is the faultinject binary
// corruptor over a clean stream plus a few degenerate shapes.
func FuzzReadWAL(f *testing.F) {
	clean := corpusWAL(8)
	f.Add(clean)
	f.Add([]byte{})
	f.Add([]byte(walHeader))
	f.Add([]byte("not a wal at all"))
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
		rep := &salvage.Report{}
		recs, err := readRecords(bytes.NewReader(data), "WAL", walHeader, true, rep)
		if err != nil {
			t.Fatalf("lenient reader errored on in-memory data: %v", err)
		}
		if rep.Kept != len(recs) {
			t.Fatalf("report kept %d, returned %d records", rep.Kept, len(recs))
		}
		for _, r := range recs {
			// Each record is somewhere in the input, whole, behind its
			// sequence number: a view that the window overwrote is not.
			want := appendRecord(nil, r.Seq, r.Data)
			if !bytes.Contains(data, want) {
				t.Fatalf("record seq %d is not a frame of the input", r.Seq)
			}
		}
	})
}

// TestFuzzCorporaSalvageAccounting pins the corpus behaviour the fuzz
// invariants rely on, without needing -fuzz: a torn-final stream must
// salvage all but the final record with line-accurate strict errors.
func TestFuzzCorporaSalvageAccounting(t *testing.T) {
	clean := corpusWAL(8)
	for seed := int64(1); seed <= 8; seed++ {
		truncated, faults := faultinject.CorruptBytes(clean, faultinject.Plan{
			Seed: seed, Modes: []faultinject.Mode{faultinject.TruncateFinal},
		})
		if len(faults) != 1 {
			t.Fatalf("seed %d: faults = %+v", seed, faults)
		}
		// Strict must reject the stream (the tail is torn).
		if _, err := readRecords(bytes.NewReader(truncated), "WAL", walHeader, false, nil); err == nil {
			t.Fatalf("seed %d: strict accepted a truncated stream", seed)
		}
		// Lenient must keep every whole frame before the cut. The cut
		// lands in the final 64-byte window, and frames here are 31
		// bytes, so at most the last two records are lost.
		rep := &salvage.Report{}
		recs, err := readRecords(bytes.NewReader(truncated), "WAL", walHeader, true, rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 6 {
			t.Errorf("seed %d: salvaged only %d of 8 records from a tail cut", seed, len(recs))
		}
		if rep.Clean() {
			t.Errorf("seed %d: truncation not accounted: %s", seed, rep)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Errorf("seed %d: salvage reordered records: %d at %d", seed, r.Seq, i)
			}
		}
	}
}
