package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"netfail/internal/faultinject"
	"netfail/internal/salvage"
)

// formats are the three clients' headers: file magic and payload
// prefix length. Everything else about their bytes is this package's.
var formats = []struct {
	name, magic string
	minLen      int
}{
	{"WAL", "NFWAL1\n", 8},
	{"segment", "NFSEG1\n", 8},
	{"postings", "NFPST2\n", 4},
}

// stream frames n records of size bytes each behind magic; record i
// (0-based) is byte(i) repeated, so a payload names its own ordinal.
// It returns the stream and each frame's absolute offset.
func stream(magic string, n, size int) (data []byte, offs []int) {
	data = []byte(magic)
	for i := 0; i < n; i++ {
		offs = append(offs, len(data))
		start := len(data)
		data = Begin(data)
		data = append(data, bytes.Repeat([]byte{byte(i)}, size)...)
		End(data, start)
	}
	return data, offs
}

// readAll drains a reader over data, copying each payload out of the
// window, and returns the reader for its report and window.
func readAll(data []byte, magic string, minLen int, lenient bool) ([][]byte, *Reader, error) {
	r := NewReader(bytes.NewReader(data), "t", minLen, lenient, nil)
	if err := r.Header(magic); err != nil {
		return nil, r, err
	}
	var out [][]byte
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out, r, nil
		}
		if err != nil {
			return out, r, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// TestOneDamagedFrameCostsOneFrame is the regression table for the
// swallowed-frames defect: 1,000 × 100-byte records with record 10
// damaged in a way that makes its length, or a marker inside it, lie.
// At the parent the capture and postings readers trusted such a length
// (bit 14: kept 860, reported 2 skips); every format now loses exactly
// the damaged frame, says so once, and never buffers past what it
// read.
func TestOneDamagedFrameCostsOneFrame(t *testing.T) {
	const n, size, bad = 1000, 100, 9 // record 10, 0-based 9
	damages := []struct {
		name   string
		damage func(frame []byte)
		strict string // the strict reader's reason
	}{
		{"len bit 14", func(f []byte) { f[3] ^= 0x40 }, "crc mismatch"},
		{"len bit 20", func(f []byte) { f[4] ^= 0x10 }, "truncated frame payload"},
		{"len smaller", func(f []byte) { f[2] ^= 0x20 }, "crc mismatch"},
		{"false marker", func(f []byte) {
			// The frame's own marker is gone and its payload holds a
			// marker with a length that runs over the next frames.
			f[0] = 0
			copy(f[Overhead+20:], []byte{0xA5, 0x5A, 0x2C, 0x01, 0, 0, 1, 2, 3, 4})
		}, "bad sync marker"},
	}
	for _, fm := range formats {
		for _, dm := range damages {
			t.Run(fm.name+"/"+dm.name, func(t *testing.T) {
				data, offs := stream(fm.magic, n, size)
				dm.damage(data[offs[bad]:offs[bad+1]])

				got, r, err := readAll(data, fm.magic, fm.minLen, true)
				if err != nil {
					t.Fatalf("lenient: %v", err)
				}
				if len(got) != n-1 {
					t.Fatalf("lenient kept %d records, want %d", len(got), n-1)
				}
				for i, p := range got {
					want := i
					if i >= bad {
						want++
					}
					if len(p) != size || p[0] != byte(want) || p[size-1] != byte(want) {
						t.Fatalf("kept record %d is not written record %d", i, want)
					}
				}
				rep := r.Report()
				if rep.Kept != n-1 || rep.Skipped != 1 || rep.FirstBad != bad+1 || rep.LastBad != bad+1 {
					t.Errorf("report %s, want kept %d, one skip at record %d", rep, n-1, bad+1)
				}
				if len(r.buf) != Window {
					t.Errorf("window grew to %d bytes over a %d-byte stream", len(r.buf), len(data))
				}

				_, _, err = readAll(data, fm.magic, fm.minLen, false)
				want := fmt.Sprintf("t: record %d at offset %d: %s", bad+1, offs[bad], dm.strict)
				if err == nil || err.Error() != want {
					t.Errorf("strict: %v, want %q", err, want)
				}
			})
		}
	}
}

// TestLenientOrdinalsCountSkippedRegions: the report names damaged
// records by their ordinal in the file as written, not among the
// survivors, so a second damaged frame is not misnumbered by the first.
func TestLenientOrdinalsCountSkippedRegions(t *testing.T) {
	data, offs := stream("NFWAL1\n", 30, 40)
	data[offs[9]+Overhead+5] ^= 1  // record 10
	data[offs[19]+Overhead+5] ^= 1 // record 20
	got, r, err := readAll(data, "NFWAL1\n", 8, true)
	if err != nil || len(got) != 28 {
		t.Fatalf("kept %d records, %v; want 28", len(got), err)
	}
	if rep := r.Report(); rep.Skipped != 2 || rep.FirstBad != 10 || rep.LastBad != 20 {
		t.Errorf("report %s, want skips at records 10 and 20", rep)
	}
}

// TestRoundTripAcrossRefills reads frames smaller and larger than the
// window through sources that return one byte, a few bytes, or
// everything per Read: the views must be exact whatever the refill and
// growth pattern, and the window must end no larger than its largest
// frame needs.
func TestRoundTripAcrossRefills(t *testing.T) {
	sizes := []int{0, 1, 100, Window - Overhead, Window, 3*Window + 17, 5, 0, 70000}
	data := []byte("MAGIC\n")
	for i, size := range sizes {
		start := len(data)
		data = Begin(data)
		data = append(data, bytes.Repeat([]byte{byte(i + 1)}, size)...)
		End(data, start)
	}
	sources := map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(data) },
		"halves":  func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		"chunks":  func() io.Reader { return &chunkReader{data: data, n: 4093} },
	}
	for name, src := range sources {
		for _, lenient := range []bool{false, true} {
			r := NewReader(src(), "t", 0, lenient, nil)
			if err := r.Header("MAGIC\n"); err != nil {
				t.Fatal(err)
			}
			for i, size := range sizes {
				p, err := r.Next()
				if err != nil {
					t.Fatalf("%s lenient=%v: record %d: %v", name, lenient, i+1, err)
				}
				if len(p) != size || !bytes.Equal(p, bytes.Repeat([]byte{byte(i + 1)}, size)) {
					t.Fatalf("%s lenient=%v: record %d: %d bytes, want %d of %#x", name, lenient, i+1, len(p), size, i+1)
				}
			}
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("%s lenient=%v: after the last record: %v, want EOF", name, lenient, err)
			}
			if rep := r.Report(); !rep.Clean() || rep.Kept != len(sizes) {
				t.Errorf("%s lenient=%v: report %s", name, lenient, rep)
			}
			if len(r.buf) > 4*Window {
				t.Errorf("%s lenient=%v: window %d for a largest frame of %d", name, lenient, len(r.buf), 3*Window+17+Overhead)
			}
		}
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	m := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[m:]
	return m, nil
}

func TestHeader(t *testing.T) {
	data, _ := stream("NFSEG1\n", 3, 10)
	for _, bad := range [][]byte{nil, []byte("NFSEG"), append([]byte("NFSEG2\n"), data[7:]...)} {
		_, _, err := readAll(bad, "NFSEG1\n", 8, false)
		if err == nil || err.Error() != "t: bad header" {
			t.Errorf("strict on %q: %v, want bad header", bad[:min(len(bad), 7)], err)
		}
		got, r, err := readAll(bad, "NFSEG1\n", 8, true)
		if err != nil || len(got) != 0 {
			t.Errorf("lenient on a bad header: %d records, %v; want nothing salvaged", len(got), err)
		}
		if rep := r.Report(); rep.Kept != 0 || rep.Skipped != 1 || rep.Reasons["bad header"] != 1 {
			t.Errorf("lenient report %s", rep)
		}
	}
}

// TestStartAt pins the seek form: offsets stay absolute and ordinals
// continue from the index entry.
func TestStartAt(t *testing.T) {
	data, offs := stream("NFSEG1\n", 20, 50)
	data[offs[15]+Overhead+3] ^= 1
	r := NewReader(bytes.NewReader(data[offs[12]:]), "seg", 8, false, nil)
	r.StartAt(int64(offs[12]), 12, 0)
	var err error
	for err == nil {
		_, err = r.Next()
	}
	want := fmt.Sprintf("seg: record 16 at offset %d: crc mismatch", offs[15])
	if err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestStartAtAgain pins the re-seek form a store read uses when its
// fetch hands over to a scan: after
// the source is repositioned, StartAt drops what was buffered and the
// sticky end of file, keeps one window across calls, and sizes it to
// the span it is given — reading past the span still works, a window
// at a time.
func TestStartAtAgain(t *testing.T) {
	data, offs := stream("NFSEG1\n", 40, 50)
	src := bytes.NewReader(data)
	r := NewReader(src, "seg", 8, false, nil)
	seek := func(rec, span int) {
		t.Helper()
		if _, err := src.Seek(int64(offs[rec]), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		r.StartAt(int64(offs[rec]), int64(rec), span)
	}
	next := func(want int) {
		t.Helper()
		p, err := r.Next()
		if err != nil || len(p) != 50 || p[0] != byte(want) {
			t.Fatalf("Next: record %v, %v; want record %d", p[:min(len(p), 1)], err, want)
		}
	}
	stride := offs[1] - offs[0]

	seek(30, 4*stride)
	for i := 30; i < 40; i++ { // past the span, to the end
		next(i)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
	window := &r.buf[0]
	seek(10, 2*stride) // backwards, after EOF, into a smaller span
	next(10)
	if len(r.buf) != 2*stride || &r.buf[0] != window {
		t.Errorf("window is %d bytes (reused: %v), want the %d-byte span in the buffer it had",
			len(r.buf), &r.buf[0] == window, 2*stride)
	}
	next(11)
	next(12) // the third record of a two-record window: refilled
	seek(20, 0)
	next(20)
	if len(r.buf) != 2*stride {
		t.Errorf("span 0 changed the window to %d bytes", len(r.buf))
	}
	if rep := r.Report(); rep.Kept != 14 || rep.Skipped != 0 {
		t.Errorf("report %s, want 14 kept across the seeks", rep)
	}
}

func TestReject(t *testing.T) {
	data, offs := stream("P\n", 3, 8)
	for _, lenient := range []bool{false, true} {
		rep := &salvage.Report{Kept: 5} // accumulates into what it is given
		r := NewReader(bytes.NewReader(data), "p", 4, lenient, rep)
		if err := r.Header("P\n"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		err := r.Reject("keys out of order")
		if !lenient {
			want := fmt.Sprintf("p: record 2 at offset %d: keys out of order", offs[1])
			if err == nil || err.Error() != want {
				t.Errorf("strict Reject: %v, want %q", err, want)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if rep.Kept != 5+2 || rep.Skipped != 1 || rep.FirstBad != 2 || rep.Reasons["keys out of order"] != 1 {
			t.Errorf("lenient report %s", rep)
		}
	}
}

// TestReadErrorIsAnErrorInBothModes: a source that fails is not a
// truncated file; neither mode may pass it off as damage or as EOF.
func TestReadErrorIsAnErrorInBothModes(t *testing.T) {
	data, offs := stream("M\n", 10, 30)
	boom := errors.New("disk on fire")
	for _, lenient := range []bool{false, true} {
		src := io.MultiReader(bytes.NewReader(data[:offs[6]+5]), iotest.ErrReader(boom))
		r := NewReader(src, "m", 0, lenient, nil)
		if err := r.Header("M\n"); err != nil {
			t.Fatal(err)
		}
		n := 0
		var err error
		for ; err == nil; n++ {
			_, err = r.Next()
		}
		if n-1 != 6 || !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "m: ") {
			t.Errorf("lenient=%v: %d records then %v; want 6 then the read error", lenient, n-1, err)
		}
	}
	r := NewReader(iotest.ErrReader(boom), "m", 0, true, nil)
	if err := r.Header("M\n"); !errors.Is(err, boom) {
		t.Errorf("Header over a failing source: %v", err)
	}
	r = NewReader(stalled{}, "m", 0, true, nil)
	if _, err := r.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("a source that never progresses: %v", err)
	}
}

type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// TestAllocBudget pins the codec's two hot paths: encoding into a
// reused buffer allocates nothing, and a reader costs its three
// set-up allocations (reader, report, window) however many frames it
// returns.
func TestAllocBudget(t *testing.T) {
	rec := bytes.Repeat([]byte{0x42}, 120)
	buf := make([]byte, 0, 256)
	if avg := testing.AllocsPerRun(200, func() {
		buf = Begin(buf[:0])
		buf = binary.LittleEndian.AppendUint64(buf, 7)
		buf = append(buf, rec...)
		End(buf, 0)
	}); avg > 0 {
		t.Errorf("encoding allocates %.2f per frame, budget 0", avg)
	}
	data, _ := stream("S\n", 4096, 128)
	src := bytes.NewReader(data)
	if avg := testing.AllocsPerRun(20, func() {
		src.Reset(data)
		r := NewReader(src, "s", 8, false, nil)
		if err := r.Header("S\n"); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}); avg > 3 {
		t.Errorf("reading 4096 frames allocates %.1f times, budget 3", avg)
	}
}

// FuzzReader carries the framing invariants for every client. Whatever
// the bytes, the minimum payload length and the read pattern:
//
//   - neither mode panics, and the window holds no more than twice
//     what the source had (a lying length buys no memory);
//   - lenient never errors on in-memory data and its report counts
//     exactly what it returned;
//   - what strict returned before stopping is what lenient returned
//     first, and if strict reached the end lenient agrees record for
//     record with a clean report.
//
// The seeds are faultinject's binary corruptor over a clean stream —
// torn writes, truncated finals, bit flips, spliced garbage — plus
// degenerate shapes.
func FuzzReader(f *testing.F) {
	const magic = "NFSEG1\n"
	clean, _ := stream(magic, 8, 21)
	f.Add(clean, uint8(8), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte(magic), uint8(4), uint8(1))
	f.Add([]byte("not framed at all"), uint8(8), uint8(3))
	for seed := int64(1); seed <= 4; seed++ {
		torn, _ := faultinject.CorruptBytes(clean, faultinject.Plan{
			Seed: seed, Rate: 0.4, Modes: []faultinject.Mode{faultinject.TornWrite},
		})
		f.Add(torn, uint8(8), uint8(seed))
		truncated, _ := faultinject.CorruptBytes(clean, faultinject.Plan{
			Seed: seed, Modes: []faultinject.Mode{faultinject.TruncateFinal},
		})
		f.Add(truncated, uint8(4), uint8(0))
		mixed, _ := faultinject.CorruptBytes(clean, faultinject.Plan{Seed: seed, Rate: 0.1})
		f.Add(mixed, uint8(8), uint8(7*seed))
	}

	f.Fuzz(func(t *testing.T, data []byte, minLen, chunk uint8) {
		read := func(lenient bool) ([][]byte, *Reader, error) {
			var src io.Reader = bytes.NewReader(data)
			if chunk > 0 {
				src = &chunkReader{data: data, n: int(chunk)}
			}
			r := NewReader(src, "fuzz", int(minLen), lenient, nil)
			if err := r.Header(magic); err != nil {
				return nil, r, err
			}
			var out [][]byte
			for {
				p, err := r.Next()
				if err != nil {
					if err == io.EOF {
						err = nil
					}
					return out, r, err
				}
				if len(p) < int(minLen) {
					t.Fatalf("lenient=%v returned a %d-byte payload under the minimum %d", lenient, len(p), minLen)
				}
				out = append(out, append([]byte(nil), p...))
			}
		}
		strict, sr, strictErr := read(false)
		lenientRecs, lr, lenientErr := read(true)
		if lenientErr != nil {
			t.Fatalf("lenient errored on in-memory data: %v", lenientErr)
		}
		for _, r := range []*Reader{sr, lr} {
			if len(r.buf) > max(Window, 2*len(data)) {
				t.Fatalf("window %d bytes over %d bytes of input", len(r.buf), len(data))
			}
		}
		rep := lr.Report()
		if rep.Kept != len(lenientRecs) {
			t.Fatalf("report kept %d, returned %d", rep.Kept, len(lenientRecs))
		}
		if len(strict) > len(lenientRecs) {
			t.Fatalf("strict returned %d records, lenient only %d", len(strict), len(lenientRecs))
		}
		for i := range strict {
			if !bytes.Equal(strict[i], lenientRecs[i]) {
				t.Fatalf("record %d differs between strict and lenient", i)
			}
		}
		if strictErr == nil && (!rep.Clean() || len(strict) != len(lenientRecs)) {
			t.Fatalf("strict accepted %d records but lenient kept %d with %s", len(strict), len(lenientRecs), rep)
		}
		if strictErr != nil && rep.Clean() {
			t.Fatalf("strict failed (%v) but lenient reports a clean read", strictErr)
		}
	})
}
