package store

import (
	"bytes"
	"reflect"
	"testing"

	"netfail/internal/frame"
)

// FuzzReadPostings holds what postings add on top of internal/frame,
// whose FuzzReader carries the framing invariants: the lenient reader
// never errors on in-memory data, a stream the strict reader accepts
// salvages to itself with a clean report, and nothing either reader
// accepts holds a ragged or non-increasing offset list — CRC-valid
// forgeries must not poison query plans.
func FuzzReadPostings(f *testing.F) {
	clean := []byte(pstHeader)
	clean = appendPstFrame(clean, 0, []int64{7, 112, 252})
	clean = appendPstFrame(clean, 2, []int64{42, 77})
	clean = appendPstFrame(clean, 9, []int64{147, 182, 217, 287})
	f.Add(clean)
	f.Add([]byte(pstHeader))
	f.Add([]byte{})
	f.Add([]byte("GARBAGE\n"))
	f.Add(clean[:len(clean)-3])
	flipped := append([]byte(nil), clean...)
	flipped[len(pstHeader)+frame.Overhead+2] ^= 0xFF
	f.Add(flipped)
	desynced := append([]byte(nil), clean...)
	desynced[len(pstHeader)] = 0x00
	f.Add(desynced)

	f.Fuzz(func(t *testing.T, data []byte) {
		strictOut, _, strictErr := ReadPostings(bytes.NewReader(data), "fuzz", false)
		lenOut, rep, lenErr := ReadPostings(bytes.NewReader(data), "fuzz", true)
		if lenErr != nil {
			t.Fatalf("lenient reader errored: %v", lenErr)
		}
		if rep.Kept != len(lenOut) {
			t.Fatalf("report kept %d, returned %d keys", rep.Kept, len(lenOut))
		}
		if strictErr == nil && (!rep.Clean() || !reflect.DeepEqual(strictOut, lenOut)) {
			t.Fatalf("strict accepted the stream but lenient parsed it differently (%s):\nstrict %v\nlenient %v", rep, strictOut, lenOut)
		}
		for k, offs := range lenOut {
			for i := 1; i < len(offs); i++ {
				if offs[i] <= offs[i-1] {
					t.Fatalf("key %d: accepted non-increasing offsets %v", k, offs)
				}
			}
		}
	})
}
