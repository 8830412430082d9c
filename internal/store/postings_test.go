package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netfail/internal/frame"
)

func samplePostings() map[uint32][]int64 {
	return map[uint32][]int64{
		0: {7, 112, 252, 322},
		2: {42, 77, 147},
		5: {182, 217, 287, 357, 392},
		9: {427},
	}
}

// pstFrameStart computes the file offset where key's frame begins,
// mirroring the writer's layout: header, then one frame per key in
// increasing key order.
func pstFrameStart(lists map[uint32][]int64, key uint32) int64 {
	keys := make([]uint32, 0, len(lists))
	for k := range lists {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	off := int64(len(pstHeader))
	for _, k := range keys {
		if k == key {
			return off
		}
		off += int64(frame.Overhead + 4 + 8*len(lists[k]))
	}
	panic("key not in lists")
}

func writeSamplePostings(t *testing.T) (string, map[uint32][]int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.pst")
	lists := samplePostings()
	if err := writePostings(path, lists); err != nil {
		t.Fatal(err)
	}
	return path, lists
}

func TestPostingsRoundTrip(t *testing.T) {
	path, lists := writeSamplePostings(t)

	got, rep, err := loadPostings(path, false)
	if err != nil {
		t.Fatalf("strict load: %v", err)
	}
	if !rep.Clean() || rep.Kept != len(lists) {
		t.Errorf("strict report on clean file: %s", rep)
	}
	if !reflect.DeepEqual(got, lists) {
		t.Errorf("strict round trip:\n got %v\nwant %v", got, lists)
	}

	got, rep, err = loadPostings(path, true)
	if err != nil {
		t.Fatalf("lenient load: %v", err)
	}
	if !reflect.DeepEqual(got, lists) {
		t.Errorf("lenient round trip:\n got %v\nwant %v", got, lists)
	}
	if !rep.Clean() || rep.Kept != len(lists) {
		t.Errorf("lenient report on clean file: %s", rep)
	}
}

func TestPostingsMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.pst")
	for _, lenient := range []bool{false, true} {
		_, _, err := loadPostings(path, lenient)
		if !errors.Is(err, ErrNoPostings) {
			t.Errorf("lenient=%v: got %v, want ErrNoPostings", lenient, err)
		}
	}
}

func TestPostingsStrictCorruptionIsOffsetAccurate(t *testing.T) {
	path, lists := writeSamplePostings(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second frame (key 2): the frame
	// boundary stays intact but the CRC no longer matches.
	frameStart := pstFrameStart(lists, 2)
	data[frameStart+int64(frame.Overhead)+4] ^= 0xFF

	_, _, err = ReadPostings(bytes.NewReader(data), "t.pst", false)
	if err == nil {
		t.Fatal("strict read of corrupted postings succeeded")
	}
	want := fmt.Sprintf("store: t.pst: record 2 at offset %d: crc mismatch", frameStart)
	if err.Error() != want {
		t.Errorf("error %q does not pin the damage: want %q", err, want)
	}
}

func TestPostingsLenientSalvagesCRCDamage(t *testing.T) {
	path, lists := writeSamplePostings(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[pstFrameStart(lists, 2)+int64(frame.Overhead)+4] ^= 0xFF

	got, rep, err := ReadPostings(bytes.NewReader(data), "t.pst", true)
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if rep.Skipped != 1 || rep.Reasons["crc mismatch"] != 1 {
		t.Errorf("salvage accounting: %s", rep)
	}
	if rep.Kept != len(lists)-1 {
		t.Errorf("kept %d frames, want %d", rep.Kept, len(lists)-1)
	}
	if _, ok := got[2]; ok {
		t.Error("damaged key 2 survived salvage")
	}
	for _, k := range []uint32{0, 5, 9} {
		if !reflect.DeepEqual(got[k], lists[k]) {
			t.Errorf("key %d: got %v, want %v", k, got[k], lists[k])
		}
	}
}

func TestPostingsLenientResyncsAfterBadSync(t *testing.T) {
	path, lists := writeSamplePostings(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Destroy the second frame's sync marker: the lenient reader must
	// scan forward to the next marker instead of giving up.
	data[pstFrameStart(lists, 2)] = 0x00

	if _, _, err := ReadPostings(bytes.NewReader(data), "t.pst", false); err == nil ||
		!strings.Contains(err.Error(), "bad sync marker") {
		t.Errorf("strict read: got %v, want bad sync marker error", err)
	}

	got, rep, err := ReadPostings(bytes.NewReader(data), "t.pst", true)
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if rep.Clean() {
		t.Error("salvage report claims a clean file")
	}
	if _, ok := got[2]; ok {
		t.Error("frame with destroyed sync marker survived")
	}
	// Whatever resync recovered must agree with the clean file: a
	// salvaged postings list may lose keys, never invent them.
	for k, offs := range got {
		if !reflect.DeepEqual(offs, lists[k]) {
			t.Errorf("key %d: got %v, want %v", k, offs, lists[k])
		}
	}
	if !reflect.DeepEqual(got[0], lists[0]) {
		t.Errorf("frame before the damage lost: got %v", got[0])
	}
}

func TestPostingsTruncatedTail(t *testing.T) {
	path, lists := writeSamplePostings(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final frame (key 9) in half.
	data = data[:pstFrameStart(lists, 9)+5]

	if _, _, err := ReadPostings(bytes.NewReader(data), "t.pst", false); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Errorf("strict read: got %v, want truncation error", err)
	}

	got, rep, err := ReadPostings(bytes.NewReader(data), "t.pst", true)
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if rep.Kept != 3 || rep.Skipped == 0 {
		t.Errorf("salvage accounting: %s", rep)
	}
	for _, k := range []uint32{0, 2, 5} {
		if !reflect.DeepEqual(got[k], lists[k]) {
			t.Errorf("key %d: got %v, want %v", k, got[k], lists[k])
		}
	}
}

// appendPstFrame frames one posting list with a valid CRC — the tool
// for forging streams the writer would never produce.
func appendPstFrame(b []byte, key uint32, offs []int64) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(frame.Begin(b), key)
	for _, off := range offs {
		b = binary.LittleEndian.AppendUint64(b, uint64(off))
	}
	frame.End(b, start)
	return b
}

func TestPostingsRejectsNonMonotoneFrames(t *testing.T) {
	// Valid CRCs, rotten semantics: keys out of order, then offsets
	// out of order. Both must fail strict and be skipped lenient —
	// CRC-valid forgeries must not poison query plans.
	cases := []struct {
		name string
		data []byte
	}{
		{"decreasing keys", appendPstFrame(appendPstFrame([]byte(pstHeader), 5, []int64{7, 42}), 3, []int64{77})},
		{"decreasing offsets", appendPstFrame([]byte(pstHeader), 1, []int64{77, 7})},
		{"duplicate key", appendPstFrame(appendPstFrame([]byte(pstHeader), 5, []int64{7}), 5, []int64{42})},
		{"ragged list", func() []byte {
			b := append(appendPstFrame([]byte(pstHeader), 5, []int64{7}), 0xEE, 0xEE, 0xEE, 0xEE)
			frame.End(b, len(pstHeader))
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadPostings(bytes.NewReader(tc.data), "t.pst", false)
			if err == nil || !strings.Contains(err.Error(), "implausible postings frame") {
				t.Errorf("strict: got %v, want implausible-frame error", err)
			}
			_, rep, err := ReadPostings(bytes.NewReader(tc.data), "t.pst", true)
			if err != nil {
				t.Fatalf("lenient: %v", err)
			}
			if rep.Reasons["implausible postings frame"] == 0 {
				t.Errorf("salvage accounting: %s", rep)
			}
		})
	}
}

func TestPostingsBadHeader(t *testing.T) {
	data := []byte("GARBAGE\nnot a postings file")
	if _, _, err := ReadPostings(bytes.NewReader(data), "t.pst", false); err == nil ||
		!strings.Contains(err.Error(), "t.pst: bad header") {
		t.Errorf("strict: got %v, want bad-header error", err)
	}
	got, rep, err := ReadPostings(bytes.NewReader(data), "t.pst", true)
	if err != nil {
		t.Fatalf("lenient: %v", err)
	}
	if len(got) != 0 || rep.Clean() {
		t.Errorf("lenient bad header: got %v, report %s", got, rep)
	}
}

// TestPostingsLengthFlipCostsOneKey is the postings row of
// internal/frame's damage table: at the parent a flipped length bit
// made the reader trust the length and swallow the keys behind it (368
// of these 1,000 kept, two skips reported).
func TestPostingsLengthFlipCostsOneKey(t *testing.T) {
	data := []byte(pstHeader)
	var offs []int
	for k := uint32(0); k < 1000; k++ {
		offs = append(offs, len(data))
		data = appendPstFrame(data, k, []int64{int64(k), int64(k) + 1, int64(k) + 2000})
	}
	data[offs[9]+3] ^= 0x40 // key 9, bit 14 of len
	got, rep, err := ReadPostings(bytes.NewReader(data), "t.pst", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, lost := got[9]; len(got) != 999 || lost || rep.Skipped != 1 {
		t.Errorf("kept %d keys (%s), want 999 with key 9 the one lost", len(got), rep)
	}
}

// TestPostingsGoldenBytes pins the NFPST2 format: today's writer must
// produce these bytes and today's reader must decode them. The NFPST1
// bytes a pre-offset store holds (record ordinals, pinned at the
// commit before internal/frame existed) read as no postings at all, in
// both modes, so such a store answers by scanning.
func TestPostingsGoldenBytes(t *testing.T) {
	want, _ := hex.DecodeString("4e46505354320a" +
		"a55a140000005425e4ec" + "00000000" + "07000000000000003d00000000000000" +
		"a55a0c000000db3dbd2c" + "02000000" + "2200000000000000" +
		"a55a04000000a5e793bc" + "07000000")
	lists := map[uint32][]int64{0: {7, 61}, 2: {34}, 7: {}}
	path := filepath.Join(t.TempDir(), "a.pst")
	if err := writePostings(path, lists); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("postings bytes\n got %x\nwant %x (%v)", got, want, err)
	}
	ordinals, _ := hex.DecodeString("4e46505354310a" +
		"a55a0c00000081696069" + "00000000" + "0000000003000000" +
		"a55a0800000071bfbb9f" + "02000000" + "01000000" +
		"a55a04000000a5e793bc" + "07000000")
	old := filepath.Join(t.TempDir(), "old.pst")
	if err := os.WriteFile(old, ordinals, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, lenient := range []bool{false, true} {
		got, rep, err := loadPostings(path, lenient)
		if err != nil || !rep.Clean() || !reflect.DeepEqual(got, lists) {
			t.Errorf("lenient=%v: %v, %s, %v", lenient, got, rep, err)
		}
		if got, rep, err := loadPostings(old, lenient); !errors.Is(err, ErrNoPostings) {
			t.Errorf("lenient=%v: NFPST1 postings read as %v, %s, %v; want ErrNoPostings", lenient, got, rep, err)
		}
	}
}
