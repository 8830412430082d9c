package isis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"netfail/internal/topo"
)

// The pre-rewrite Fletcher routines and LSP encoder, verbatim: one
// modulo per octet, one temporary slice per TLV. The block-modulo
// checksum and the in-place encoder are differentially tested against
// them below.

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

func refEncode(l *LSP) ([]byte, error) {
	b := appendCommonHeader(nil, TypeLSPL2, lspHeaderLen)
	b = append(b, 0, 0) // PDU length, patched below
	b = append(b, byte(l.Lifetime>>8), byte(l.Lifetime))
	b = l.ID.appendTo(b)
	var seq [4]byte
	binary.BigEndian.PutUint32(seq[:], l.Sequence)
	b = append(b, seq[:]...)
	b = append(b, 0, 0) // checksum, patched below
	flags := byte(0x03) // IS type: level 2
	if l.Attached {
		flags |= 0x40 // ATT default-metric bit
	}
	if l.Overload {
		flags |= 0x04
	}
	b = append(b, flags)

	if len(l.Areas) > 0 {
		var val []byte
		for _, a := range l.Areas {
			val = append(val, byte(len(a)))
			val = append(val, a...)
		}
		b = appendTLV(b, TLVAreaAddresses, val)
	}
	if l.Hostname != "" {
		if len(l.Hostname) > maxTLVValueLength {
			return nil, fmt.Errorf("isis: hostname %q too long", l.Hostname)
		}
		b = appendTLV(b, TLVHostname, []byte(l.Hostname))
	}
	if len(l.IfaceAddrs) > 0 {
		var val []byte
		for _, a := range l.IfaceAddrs {
			var buf [4]byte
			binary.BigEndian.PutUint32(buf[:], a)
			val = append(val, buf[:]...)
			if len(val) == 252 {
				b = appendTLV(b, TLVIPIfaceAddr, val)
				val = nil
			}
		}
		if len(val) > 0 {
			b = appendTLV(b, TLVIPIfaceAddr, val)
		}
	}
	b = refAppendExtISReach(b, l.Neighbors)
	b = refAppendExtIPReach(b, l.Prefixes)
	for _, u := range l.Unknown {
		b = appendTLV(b, u.Type, u.Value)
	}

	if len(b) > 0xffff {
		return nil, fmt.Errorf("isis: LSP %v exceeds maximum PDU size", l.ID)
	}
	putUint16(b, commonHeaderLen, uint16(len(b)))
	const ckOff = 24
	const ckStart = 12
	ck := refFletcherChecksum(b[ckStart:], ckOff-ckStart)
	putUint16(b, ckOff, ck)
	return b, nil
}

func refAppendExtISReach(b []byte, neighbors []ISNeighbor) []byte {
	for start := 0; start < len(neighbors); {
		var val []byte
		end := start
		for end < len(neighbors) {
			n := neighbors[end]
			subLen := 0
			for _, s := range n.SubTLVs {
				subLen += 2 + len(s.Value)
			}
			entry := isNeighborFixedLen + subLen
			if len(val)+entry > maxTLVValueLength {
				break
			}
			val = append(val, n.System[:]...)
			val = append(val, n.Pseudonode)
			val = append(val, byte(n.Metric>>16), byte(n.Metric>>8), byte(n.Metric))
			val = append(val, byte(subLen))
			for _, s := range n.SubTLVs {
				val = append(val, byte(s.Type), byte(len(s.Value)))
				val = append(val, s.Value...)
			}
			end++
		}
		if end == start {
			panic("isis: single IS reachability entry exceeds TLV capacity")
		}
		b = appendTLV(b, TLVExtISReach, val)
		start = end
	}
	return b
}

func refAppendExtIPReach(b []byte, prefixes []IPPrefix) []byte {
	for start := 0; start < len(prefixes); {
		var val []byte
		end := start
		for end < len(prefixes) {
			p := prefixes[end]
			octets := int(p.Length+7) / 8
			entry := 4 + 1 + octets
			if len(val)+entry > maxTLVValueLength {
				break
			}
			var metric [4]byte
			binary.BigEndian.PutUint32(metric[:], p.Metric)
			val = append(val, metric[:]...)
			ctrl := p.Length & 0x3f
			if p.Down {
				ctrl |= 0x80
			}
			val = append(val, ctrl)
			var addr [4]byte
			binary.BigEndian.PutUint32(addr[:], p.Addr)
			val = append(val, addr[:octets]...)
			end++
		}
		if end == start {
			panic("isis: single IP reachability entry exceeds TLV capacity")
		}
		b = appendTLV(b, TLVExtIPReach, val)
		start = end
	}
	return b
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
// encoder emits the bytes the per-TLV-temporary encoder did, appended
// behind whatever dst already holds, into a buffer with room or
// without; and the result decodes.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	split := 0
	for trial := 0; trial < 2000; trial++ {
		l := randomLSP(rng)
		want, err := refEncode(l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Encode differs from the reference\n got %x\nwant %x", trial, got, want)
		}
		prefix := []byte("already here")
		dst := append(make([]byte, 0, rng.Intn(2*len(want))), prefix...)
		out, err := l.AppendEncode(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
			t.Fatalf("trial %d: AppendEncode behind a prefix differs from Encode", trial)
		}
		if l.Checksum != binary.BigEndian.Uint16(want[24:]) {
			t.Fatalf("trial %d: Checksum field %#04x is not the wire's", trial, l.Checksum)
		}
		var back LSP
		if err := back.DecodeFromBytes(got); err != nil {
			t.Fatalf("trial %d: encoded LSP does not decode: %v", trial, err)
		}
		if len(back.Neighbors) != len(l.Neighbors) || len(back.Prefixes) != len(l.Prefixes) || len(back.IfaceAddrs) != len(l.IfaceAddrs) {
			t.Fatalf("trial %d: decode lost entries", trial)
		}
		if len(l.Neighbors)*isNeighborFixedLen > maxTLVValueLength && len(l.IfaceAddrs) > 63 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no trial split both a neighbor and an interface-address TLV")
	}
}
