// Package frame is the one implementation of netfail's framed-record
// layout, shared by the checkpoint WAL and snapshots, capture segments
// and store postings:
//
//	A5 5A | len u32le | crc u32le | payload[len]
//
// crc is CRC-32 (IEEE) over the payload and len covers the payload
// only. A client owns its file magic and its payload prefix (the WAL's
// seq u64, a segment's ts i64, a posting list's key u32) and nothing
// else about the bytes.
//
// The paper's finding is that a monitoring channel loses records
// silently and the analyst must account for every one (§3.3, §4), so
// the Reader salvages and counts damage the same way for every file
// netfail writes. The recovery rule: after any damage — bad marker,
// implausible length, truncated payload, CRC mismatch — rescan from
// the byte after the damaged frame's first for the next marker whose
// whole frame validates. A length is never trusted until the CRC has
// vouched for the payload it delimits: a flipped length bit, or a
// chance A5 5A inside a damaged payload, costs the one frame it sits
// in and not the megabytes it points past.
package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"netfail/internal/salvage"
)

const (
	// Overhead is the marker, length and CRC that precede a payload.
	Overhead = 2 + 4 + 4
	// MaxLen bounds a payload, so a corrupted length cannot make a
	// reader buffer gigabytes: its window never exceeds
	// Overhead+MaxLen.
	MaxLen = 64 << 20

	// window is the reader's initial buffer: one read's worth.
	window = 256 << 10
)

var marker = []byte{0xA5, 0x5A}

// Begin appends a frame header to dst with the length and CRC still
// to come. The caller appends the payload — its own prefix, then the
// record, no intermediate copy — and calls End with the len(dst) it
// had before Begin. Into a reused buffer this allocates nothing.
func Begin(dst []byte) []byte {
	return append(dst, marker[0], marker[1], 0, 0, 0, 0, 0, 0, 0, 0)
}

// End patches the length and CRC of the frame begun at dst[start],
// whose payload is everything appended since.
func End(dst []byte, start int) {
	payload := dst[start+Overhead:]
	binary.LittleEndian.PutUint32(dst[start+2:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+6:], crc32.ChecksumIEEE(payload))
}

// A Reader streams the frames of one file. Strict, it stops at the
// first damaged frame with
//
//	<name>: record N at offset O: <reason>
//
// where N is the 1-based ordinal of the record that failed and O the
// absolute file offset of its frame (the number to give dd skip= or
// xxd -s). Lenient, it skips each damaged region by the package's
// recovery rule and accounts it once in the salvage report, at the
// ordinal the lost record would have had and under the same reasons:
// "bad sync marker", "implausible frame length", "truncated frame
// header", "truncated frame payload", "crc mismatch" (and "bad header"
// for a wrong file magic). A read error from the source is an error in
// both modes.
type Reader struct {
	src     io.Reader
	name    string
	minLen  int
	lenient bool
	rep     *salvage.Report

	buf     []byte // the window; buf[lo:hi] is read and not yet consumed
	lo, hi  int
	off     int64 // absolute file offset of buf[lo]
	last    int64 // offset of the frame Next last returned
	records int64 // frames returned so far, counted from the file's first
	skipped int64 // damaged regions skipped so far (lenient only)
	err     error // sticky: what src.Read ended with, io.EOF when clean
	stalls  int   // consecutive empty reads
}

// NewReader reads frames from src. name labels errors; a payload
// shorter than minLen (the client's prefix) is damage; rep accumulates
// the salvage accounting, a fresh report when nil.
func NewReader(src io.Reader, name string, minLen int, lenient bool, rep *salvage.Report) *Reader {
	if rep == nil {
		rep = &salvage.Report{}
	}
	return &Reader{src: src, name: name, minLen: minLen, lenient: lenient, rep: rep}
}

// Header consumes the file magic ahead of the first frame. A wrong
// magic means this is not (or no longer) such a file: strict fails,
// lenient accounts it and salvages nothing rather than misparse
// garbage.
func (r *Reader) Header(magic string) error {
	if w := r.need(len(magic)); len(w) >= len(magic) && string(w[:len(magic)]) == magic {
		r.skip(len(magic))
		return nil
	}
	if err := r.end(); err != io.EOF {
		return err
	}
	if !r.lenient {
		return fmt.Errorf("%s: bad header", r.name)
	}
	r.rep.Skip(1, "bad header")
	r.lo, r.hi, r.err = 0, 0, io.EOF
	return nil
}

// StartAt is for a source the caller has positioned past the header,
// at a frame boundary taken from an index: offset is that frame's
// absolute file offset and record how many precede it. Anything still
// buffered is dropped, so a caller may re-seek its source and call this
// again. A positive span — the distance to the next index entry, all
// the bytes a fetch inside that stride can need — sizes the window,
// which is reused across calls; zero keeps the window the reader has.
func (r *Reader) StartAt(offset, record int64, span int) {
	r.off, r.records, r.skipped = offset, record, 0
	r.lo, r.hi, r.err, r.stalls = 0, 0, nil, 0
	if span > 0 {
		if span > cap(r.buf) {
			r.buf = make([]byte, span)
		}
		r.buf = r.buf[:span]
	}
}

// Report returns the salvage accounting so far: frames kept, damaged
// regions skipped.
func (r *Reader) Report() *salvage.Report { return r.rep }

// Next returns the next frame's payload, a view into the reader's
// window valid until the next call, or io.EOF at the end of the file.
func (r *Reader) Next() ([]byte, error) {
	n, reason := r.frameAt()
	if reason != "" {
		if err := r.end(); err != io.EOF || r.lo == r.hi {
			return nil, err
		}
		if !r.lenient {
			return nil, r.damage(r.records+1, r.off, reason)
		}
		r.account(reason)
		if n = r.resync(); n < 0 {
			return nil, r.end()
		}
	}
	payload := r.buf[r.lo+Overhead : r.lo+Overhead+n]
	r.last = r.off
	r.skip(Overhead + n)
	r.records++
	r.rep.Kept++
	return payload, nil
}

// Reject withdraws the frame Next just returned: its bytes were intact
// but the client found the payload implausible (keys out of order, a
// ragged list). Strict, that is the error to return; lenient, the
// frame moves from kept to skipped.
func (r *Reader) Reject(reason string) error {
	if !r.lenient {
		return r.damage(r.records, r.last, reason)
	}
	r.records--
	r.rep.Kept--
	r.account(reason)
	return nil
}

// account books one skipped region under the ordinal its first frame
// would have had, each earlier region counted as the one frame it
// most often is.
func (r *Reader) account(reason string) {
	r.rep.Skip(int(r.records+r.skipped)+1, reason)
	r.skipped++
}

// end is what the reader returns once the source has no more frames:
// io.EOF, or the read error that cut it short.
func (r *Reader) end() error {
	if r.err != nil && r.err != io.EOF {
		return fmt.Errorf("%s: %w", r.name, r.err)
	}
	return io.EOF
}

func (r *Reader) damage(record, offset int64, reason string) error {
	return fmt.Errorf("%s: record %d at offset %d: %s", r.name, record, offset, reason)
}

// frameAt validates the whole frame at the head of the window, reading
// as much of it as the source has: its payload length, or why it is
// not a frame.
func (r *Reader) frameAt() (n int, reason string) {
	n, reason = Check(r.need(Overhead), r.minLen)
	if reason == truncatedPayload {
		n, reason = Check(r.need(Overhead+n), r.minLen)
	}
	return n, reason
}

const truncatedPayload = "truncated frame payload"

// Check validates the frame at the head of b — marker, a length in
// [minLen, MaxLen], the whole payload, its CRC — by the rules the
// Reader applies, and returns the payload length or why b does not
// open on a frame, in the Reader's reasons. For "truncated frame
// payload" n is the length the header declares.
func Check(b []byte, minLen int) (n int, reason string) {
	if len(b) < Overhead {
		return 0, "truncated frame header"
	}
	if b[0] != marker[0] || b[1] != marker[1] {
		return 0, "bad sync marker"
	}
	n = int(binary.LittleEndian.Uint32(b[2:]))
	if n < minLen || n > MaxLen {
		return 0, "implausible frame length"
	}
	if len(b) < Overhead+n {
		return n, truncatedPayload
	}
	if crc32.ChecksumIEEE(b[Overhead:Overhead+n]) != binary.LittleEndian.Uint32(b[6:]) {
		return 0, "crc mismatch"
	}
	return n, ""
}

// resync drops bytes, starting with the damaged frame's first, until
// the window opens on a frame that validates whole; it returns that
// frame's payload length, or -1 when the file ends first.
func (r *Reader) resync() int {
	r.skip(1)
	for {
		w := r.need(len(marker))
		if len(w) < len(marker) {
			r.skip(len(w))
			return -1
		}
		i := bytes.Index(w, marker)
		if i < 0 {
			r.skip(len(w) - 1) // the last byte may be a marker's first
			continue
		}
		r.skip(i)
		if n, reason := r.frameAt(); reason == "" {
			return n
		}
		r.skip(1)
	}
}

func (r *Reader) skip(n int) {
	r.lo += n
	r.off += int64(n)
}

// need makes n unconsumed bytes available if the source still has
// them and returns the unconsumed window. The buffer doubles only once
// it is full of bytes actually read, so a bogus length on a small file
// costs no memory, and n <= Overhead+MaxLen bounds it.
func (r *Reader) need(n int) []byte {
	for r.hi-r.lo < n && r.err == nil {
		if r.hi == len(r.buf) {
			size := len(r.buf)
			if n > size {
				size = min(max(2*size, window), Overhead+MaxLen)
			}
			buf := r.buf
			if size != len(buf) {
				buf = make([]byte, size)
			}
			r.hi = copy(buf, r.buf[r.lo:r.hi])
			r.buf, r.lo = buf, 0
		}
		m, err := r.src.Read(r.buf[r.hi:])
		r.hi += m
		if m > 0 {
			r.stalls = 0
		} else if r.stalls++; err == nil && r.stalls == 100 {
			err = io.ErrNoProgress
		}
		r.err = err
	}
	return r.buf[r.lo:r.hi]
}
