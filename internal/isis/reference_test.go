package isis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"netfail/internal/topo"
)

// The pre-rewrite Fletcher routines, verbatim: one modulo per octet.
// The block-modulo checksum is differentially tested against them
// below.

func refFletcherChecksum(data []byte, ckOff int) uint16 {
	var c0, c1 int
	for i, b := range data {
		if i == ckOff || i == ckOff+1 {
			b = 0
		}
		c0 = (c0 + int(b)) % fletcherMod
		c1 = (c1 + c0) % fletcherMod
	}
	n := ckOff + 1
	l := len(data)
	x := ((l-n)*c0 - c1) % fletcherMod
	if x <= 0 {
		x += fletcherMod
	}
	y := (c1 - (l-n+1)*c0) % fletcherMod
	if y <= 0 {
		y += fletcherMod
	}
	return uint16(x)<<8 | uint16(y)
}

func refFletcherVerify(data []byte, ckOff int) bool {
	if data[ckOff] == 0 && data[ckOff+1] == 0 {
		return true
	}
	var c0, c1 int
	for _, b := range data {
		c0 = (c0 + int(b)) % fletcherMod
		c1 = (c1 + c0) % fletcherMod
	}
	return c0 == 0 && c1 == 0
}

// checkFletcher compares both routines with their references on one
// buffer and check-octet offset, then with the computed octets stored.
func checkFletcher(t *testing.T, data []byte, ckOff int) {
	t.Helper()
	got, want := fletcherChecksum(data, ckOff), refFletcherChecksum(data, ckOff)
	if got != want {
		t.Fatalf("fletcherChecksum(len %d, ckOff %d) = %#04x, reference %#04x", len(data), ckOff, got, want)
	}
	if g, w := fletcherVerify(data, ckOff), refFletcherVerify(data, ckOff); g != w {
		t.Fatalf("fletcherVerify(len %d, ckOff %d) as found = %v, reference %v", len(data), ckOff, g, w)
	}
	stored := bytes.Clone(data)
	stored[ckOff], stored[ckOff+1] = byte(got>>8), byte(got)
	if !fletcherVerify(stored, ckOff) || !refFletcherVerify(stored, ckOff) {
		t.Fatalf("len %d, ckOff %d: stored checksum %#04x does not verify", len(data), ckOff, got)
	}
}

// TestFletcherMatchesReference runs the block-modulo routines against
// the per-octet originals over seeded buffers of 27 to 65,535 octets —
// random, all-0xFF (the fastest route to an accumulator overflow) and
// all-0x00 bodies, lengths straddling every multiple of the block size
// up to four — with the check octets first, in the middle, and last.
func TestFletcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lengths := []int{27, 28, 120, 1492, 65534, 65535}
	for k := 1; k <= 4; k++ {
		lengths = append(lengths, k*fletcherBlock-1, k*fletcherBlock, k*fletcherBlock+1)
	}
	for len(lengths) < 340 {
		lengths = append(lengths, 27+rng.Intn(65535-27+1))
	}
	buffers := 0
	for i, n := range lengths {
		data := make([]byte, n)
		switch i % 4 {
		case 0:
			for j := range data {
				data[j] = 0xFF
			}
		case 1: // all zero
		default:
			rng.Read(data)
		}
		for _, ckOff := range []int{0, 12, n / 2, fletcherBlock - 1, n - 2} {
			if ckOff > n-2 {
				continue
			}
			checkFletcher(t, data, ckOff)
			buffers++
		}
	}
	if buffers < 1000 {
		t.Fatalf("only %d buffers checked", buffers)
	}
}

// FuzzFletcher: whatever the buffer and wherever the check octets sit,
// the block-modulo routines agree with the per-octet reference.
func FuzzFletcher(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopq"), uint16(12))
	f.Add(bytes.Repeat([]byte{0xFF}, 3*fletcherBlock+1), uint16(fletcherBlock-1))
	f.Add(make([]byte, 2), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint16) {
		if len(data) < 2 {
			return
		}
		checkFletcher(t, data, int(off)%(len(data)-1))
	})
}

// randomLSP builds an LSP exercising every encoder branch: TLVs that
// split (more than 63 interface addresses, neighbor and prefix lists
// past 255 octets), sub-TLVs, unknown TLVs, header flags.
func randomLSP(rng *rand.Rand) *LSP {
	l := NewLSP(topo.SystemIDFromIndex(1+rng.Intn(500)), rng.Uint32(), "", nil, nil)
	l.ID.Fragment = uint8(rng.Intn(3))
	l.Lifetime = uint16(rng.Intn(MaxAge + 1))
	l.Attached, l.Overload = rng.Intn(2) == 0, rng.Intn(4) == 0
	if rng.Intn(8) > 0 {
		l.Hostname = fmt.Sprintf("host-%d", rng.Intn(1000))
	}
	if rng.Intn(4) == 0 {
		l.Areas = nil
	}
	for n := rng.Intn(4) * rng.Intn(70); n > 0; n-- {
		l.IfaceAddrs = append(l.IfaceAddrs, rng.Uint32())
	}
	for n := rng.Intn(3) * rng.Intn(40); n > 0; n-- {
		nb := ISNeighbor{System: topo.SystemIDFromIndex(rng.Intn(1 << 16)), Pseudonode: uint8(rng.Intn(2)), Metric: uint32(rng.Intn(1 << 24))}
		switch rng.Intn(4) {
		case 0:
			nb.SetLinkIDs(rng.Uint32(), rng.Uint32())
		case 1:
			val := make([]byte, rng.Intn(40))
			rng.Read(val)
			nb.SubTLVs = append(nb.SubTLVs, RawTLV{Type: TLVType(3 + rng.Intn(20)), Value: val})
			nb.SetLinkIDs(rng.Uint32(), rng.Uint32())
		}
		l.Neighbors = append(l.Neighbors, nb)
	}
	for n := rng.Intn(3) * rng.Intn(60); n > 0; n-- {
		length := uint8(rng.Intn(33))
		addr := rng.Uint32()
		if length < 32 {
			addr &^= 1<<(32-length) - 1
		}
		l.Prefixes = append(l.Prefixes, IPPrefix{Metric: rng.Uint32(), Addr: addr, Length: length, Down: rng.Intn(5) == 0})
	}
	for n := rng.Intn(3); n > 0; n-- {
		val := make([]byte, rng.Intn(256))
		rng.Read(val)
		l.Unknown = append(l.Unknown, RawTLV{Type: TLVType(200 + rng.Intn(40)), Value: val})
	}
	return l
}

// TestEncodeMatchesReference: over 2,000 seeded LSPs the in-place
// encoder's bytes decode back to the LSP, field for field; a list it
// splits across TLVs fills each before opening the next; the bytes land
// behind whatever dst already holds, into a buffer with room or
// without; and the Checksum field is the wire's. The per-TLV-temporary
// encoder it was once compared with is retired: each row of the
// mutation table it caught (internal/lint/mutation_test.go, W1–W12)
// fails a test of this package or the simulator's pinned captures
// without it.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	split := 0
	for trial := 0; trial < 2000; trial++ {
		l := randomLSP(rng)
		got, err := l.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back LSP
		if err := back.DecodeFromBytes(got); err != nil {
			t.Fatalf("trial %d: encoded LSP does not decode: %v", trial, err)
		}
		if g, w := lspView(&back), lspView(l); g != w {
			t.Fatalf("trial %d: the encoding decodes as\n%s\nnot\n%s", trial, g, w)
		}
		checkPacked(t, trial, got[lspHeaderLen:])
		prefix := []byte("already here")
		dst := append(make([]byte, 0, rng.Intn(2*len(got))), prefix...)
		out, err := l.AppendEncode(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], got) {
			t.Fatalf("trial %d: AppendEncode behind a prefix differs from Encode", trial)
		}
		if l.Checksum != binary.BigEndian.Uint16(got[24:]) {
			t.Fatalf("trial %d: Checksum field %#04x is not the wire's", trial, l.Checksum)
		}
		if len(l.Neighbors)*isNeighborFixedLen > maxTLVValueLength && len(l.IfaceAddrs) > 63 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no trial split both a neighbor and an interface-address TLV")
	}
}

// lspView prints an LSP's exported fields (%v prints a nil and an
// empty list alike).
func lspView(l *LSP) string {
	return fmt.Sprintf("%v %d %d %#04x %v %v %q %v %v %v %v %v", l.ID, l.Sequence, l.Lifetime, l.Checksum,
		l.Attached, l.Overload, l.Hostname, l.Areas, l.IfaceAddrs, l.Neighbors, l.Prefixes, l.Unknown)
}

// checkPacked walks an LSP's TLVs and fails where a list split across
// TLVs of one type left room in one for the first entry of the next.
func checkPacked(t *testing.T, trial int, tlvs []byte) {
	t.Helper()
	prevType, prevLen := -1, 0
	for off := 0; off+2 <= len(tlvs); off += 2 + int(tlvs[off+1]) {
		typ, val := TLVType(tlvs[off]), tlvs[off+2:off+2+int(tlvs[off+1])]
		first := 0
		switch {
		case len(val) == 0:
		case typ == TLVExtISReach:
			first = isNeighborFixedLen + int(val[isNeighborFixedLen-1])
		case typ == TLVExtIPReach:
			first = 5 + int(val[4]&0x3f+7)/8
		case typ == TLVIPIfaceAddr:
			first = 4
		}
		if int(typ) == prevType && first > 0 && prevLen+first <= maxTLVValueLength {
			t.Fatalf("trial %d: TLV %d split with %d octets of room for a %d-octet entry", trial, typ, maxTLVValueLength-prevLen, first)
		}
		prevType, prevLen = int(typ), len(val)
	}
}
