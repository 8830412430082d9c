package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"netfail/internal/frame"
	"netfail/internal/salvage"
)

// Postings file format: the magic "NFPST2\n" followed by one frame
// (internal/frame) per key, in strictly increasing key order, whose
// payload is the key (u32le) followed by the byte offsets of that
// key's record frames in the segment (u64le each, strictly
// increasing), as the segment writer appended them.
//
// Postings are advisory, like the sparse time index: a store whose
// postings are missing or damaged still answers per-link and per-host
// queries by scanning the segment. A pre-offset store's postings
// ("NFPST1\n", record ordinals) read as missing until the store is
// rebuilt.
const (
	pstHeader   = "NFPST2\n"
	pstOrdinals = "NFPST1\n"
	keyLen      = 4
)

// ErrNoPostings reports a missing postings file to callers that treat
// postings as advisory.
var ErrNoPostings = errors.New("store: no postings")

// writePostings writes key → frame offset posting lists to path. Keys
// are written in increasing order; each list is already increasing
// because offsets are appended in record order.
func writePostings(path string, lists map[uint32][]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	if _, err := w.WriteString(pstHeader); err != nil {
		f.Close()
		return fmt.Errorf("store: postings: %w", err)
	}
	keys := make([]uint32, 0, len(lists))
	for k := range lists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var buf []byte
	for _, k := range keys {
		buf = frame.Begin(buf[:0])
		buf = binary.LittleEndian.AppendUint32(buf, k)
		for _, off := range lists[k] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
		}
		frame.End(buf, 0)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("store: postings: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: postings: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: postings: %w", err)
	}
	return f.Close()
}

// ReadPostings parses a postings stream. Strict, the first damaged
// frame aborts with a record- and offset-accurate error; lenient,
// damaged frames are skipped and accounted in the returned report (see
// internal/frame) — a key whose frame was lost simply falls back to a
// segment scan at query time.
func ReadPostings(r io.Reader, name string, lenient bool) (map[uint32][]int64, *salvage.Report, error) {
	fr := frame.NewReader(r, name, keyLen, lenient, nil)
	if err := fr.Header(pstHeader); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	out := make(map[uint32][]int64)
	prevKey := int64(-1)
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return out, fr.Report(), nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		key := binary.LittleEndian.Uint32(payload)
		offs, ok := decodeOffsets(payload[keyLen:])
		if !ok || int64(key) <= prevKey {
			if err := fr.Reject("implausible postings frame"); err != nil {
				return nil, nil, fmt.Errorf("store: %w", err)
			}
			continue
		}
		prevKey = int64(key)
		out[key] = offs
	}
}

// decodeOffsets decodes a strictly increasing u64 list; false means
// the bytes are rotten even though the CRC worked out (which only
// happens when a writer bug or a deliberate forgery produced them —
// the check keeps query plans safe regardless).
func decodeOffsets(b []byte) ([]int64, bool) {
	if len(b)%8 != 0 {
		return nil, false
	}
	offs := make([]int64, 0, len(b)/8)
	prev := int64(-1)
	for ; len(b) >= 8; b = b[8:] {
		off := int64(binary.LittleEndian.Uint64(b))
		if off <= prev {
			return nil, false
		}
		prev = off
		offs = append(offs, off)
	}
	return offs, true
}

// loadPostings reads a postings file, mapping a missing file, or a
// pre-offset store's ordinal lists, to ErrNoPostings.
func loadPostings(path string, lenient bool) (map[uint32][]int64, *salvage.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNoPostings
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, _ := br.Peek(len(pstOrdinals)); string(magic) == pstOrdinals {
		return nil, nil, ErrNoPostings
	}
	return ReadPostings(br, path, lenient)
}
