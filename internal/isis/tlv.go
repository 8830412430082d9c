package isis

import (
	"errors"
	"fmt"
	"slices"

	"netfail/internal/topo"
)

// TLVType identifies a type/length/value field inside a PDU.
type TLVType uint8

// TLV types used in this implementation (paper Table 1).
const (
	TLVAreaAddresses  TLVType = 1
	TLVExtISReach     TLVType = 22
	TLVIPIfaceAddr    TLVType = 132
	TLVExtIPReach     TLVType = 135
	TLVHostname       TLVType = 137
	maxTLVValueLength         = 255
)

// RawTLV is an undecoded type/length/value field. Unknown TLVs are
// preserved so a listener can skip them, as a real implementation
// must.
type RawTLV struct {
	Type  TLVType
	Value []byte
}

// appendTLV writes one TLV; it panics if value exceeds 255 bytes
// because callers are responsible for splitting long lists.
func appendTLV(b []byte, typ TLVType, value []byte) []byte {
	if len(value) > maxTLVValueLength {
		panic(fmt.Sprintf("isis: TLV %d value length %d exceeds 255", typ, len(value)))
	}
	b = append(b, byte(typ), byte(len(value)))
	return append(b, value...)
}

// closeTLV patches the length octet of the TLV whose two-octet header
// sits at b[start], now that its value has been appended behind it.
// Like appendTLV it panics past 255: callers split long lists.
func closeTLV(b []byte, start int) {
	n := len(b) - start - 2
	if n > maxTLVValueLength {
		panic(fmt.Sprintf("isis: TLV %d value length %d exceeds 255", b[start], n))
	}
	b[start+1] = byte(n)
}

// tlvCursor is an in-place iterator over a TLV region: no callback,
// no closure, no per-TLV bookkeeping beyond one offset. The yielded
// value slices alias the input buffer; callers that retain them must
// copy (the LSP decode copies into its arena).
type tlvCursor struct {
	data []byte
	off  int
	err  error
}

// next yields the next TLV. ok is false at the end of the region or
// on framing error; the cursor's err field distinguishes the two.
func (c *tlvCursor) next() (typ TLVType, value []byte, ok bool) {
	if c.off >= len(c.data) || c.err != nil {
		return 0, nil, false
	}
	if c.off+2 > len(c.data) {
		c.err = ErrTruncated
		return 0, nil, false
	}
	typ = TLVType(c.data[c.off])
	length := int(c.data[c.off+1])
	c.off += 2
	if c.off+length > len(c.data) {
		c.err = ErrTruncated
		return 0, nil, false
	}
	value = c.data[c.off : c.off+length]
	c.off += length
	return typ, value, true
}

// SubTLVLinkIDs is the Link Local/Remote Identifiers sub-TLV
// (RFC 5307 §1.1): eight bytes identifying the circuit, which is what
// lets a receiver differentiate parallel adjacencies between the same
// router pair — the capability CENIC's devices did not run (paper
// §3.4, footnote 1).
const SubTLVLinkIDs TLVType = 4

// ISNeighbor is one entry of the Extended IS Reachability TLV
// (RFC 5305 §3): a neighbor system ID (plus pseudonode octet), a
// 3-byte wide metric, and optional sub-TLVs.
type ISNeighbor struct {
	System     topo.SystemID
	Pseudonode uint8
	Metric     uint32 // 24-bit wide metric
	SubTLVs    []RawTLV
}

// AdvKey is the identity of one advertised item, metric aside: what
// the listener diffs between successive LSPs. Neighbors and prefixes
// share the one comparable type, so a fragment's content is a flat
// list of keys and no rendering is involved.
type AdvKey struct {
	System     topo.SystemID
	Pseudonode uint8 // of an AdvPrefix, the prefix length
	Kind       AdvKind
	Value      uint32 // AdvLinkID: the local identifier; AdvPrefix: the address
}

// AdvKind says what an AdvKey names: a TLV 22 neighbor without or with
// RFC 5307 link identifiers — which keep parallel adjacencies apart —
// or a TLV 135 prefix.
type AdvKind uint8

const (
	AdvNeighbor AdvKind = iota
	AdvLinkID
	AdvPrefix
)

// AdvKey returns the neighbor's identity, with the local link
// identifier when the entry carries one.
func (n ISNeighbor) AdvKey() AdvKey {
	k := AdvKey{System: n.System, Pseudonode: n.Pseudonode}
	if local, _, ok := n.LinkIDs(); ok {
		k.Kind, k.Value = AdvLinkID, local
	}
	return k
}

// SetLinkIDs attaches the RFC 5307 link local/remote identifiers.
func (n *ISNeighbor) SetLinkIDs(local, remote uint32) {
	val := make([]byte, 8)
	val[0], val[1], val[2], val[3] = byte(local>>24), byte(local>>16), byte(local>>8), byte(local)
	val[4], val[5], val[6], val[7] = byte(remote>>24), byte(remote>>16), byte(remote>>8), byte(remote)
	for i, s := range n.SubTLVs {
		if s.Type == SubTLVLinkIDs {
			n.SubTLVs[i].Value = val
			return
		}
	}
	n.SubTLVs = append(n.SubTLVs, RawTLV{Type: SubTLVLinkIDs, Value: val})
}

// LinkIDs extracts the link identifiers, if present.
func (n ISNeighbor) LinkIDs() (local, remote uint32, ok bool) {
	for _, s := range n.SubTLVs {
		if s.Type == SubTLVLinkIDs && len(s.Value) >= 8 {
			v := s.Value
			local = uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
			remote = uint32(v[4])<<24 | uint32(v[5])<<16 | uint32(v[6])<<8 | uint32(v[7])
			return local, remote, true
		}
	}
	return 0, 0, false
}

const isNeighborFixedLen = 6 + 1 + 3 + 1 // sysID + pseudonode + metric + subTLV len

// appendExtISReach writes the neighbors as TLV 22s, opening a new TLV
// whenever the next entry would push the value past 255 octets.
func appendExtISReach(b []byte, neighbors []ISNeighbor) []byte {
	start := -1 // header offset of the open TLV
	for i := range neighbors {
		n := &neighbors[i]
		subLen := 0
		for _, s := range n.SubTLVs {
			subLen += 2 + len(s.Value)
		}
		entry := isNeighborFixedLen + subLen
		if entry > maxTLVValueLength {
			panic("isis: single IS reachability entry exceeds TLV capacity")
		}
		if start < 0 || len(b)-start-2+entry > maxTLVValueLength {
			start = len(b)
			b = append(b, byte(TLVExtISReach), 0)
		}
		b = append(b, n.System[:]...)
		b = append(b, n.Pseudonode, byte(n.Metric>>16), byte(n.Metric>>8), byte(n.Metric), byte(subLen))
		for _, s := range n.SubTLVs {
			b = append(b, byte(s.Type), byte(len(s.Value)))
			b = append(b, s.Value...)
		}
		closeTLV(b, start)
	}
	return b
}

// decodeExtISReach appends one TLV 22 value's entries to l.Neighbors,
// walking the wire bytes in place: neighbor slots come from the reused
// backing array (nextNeighbor), and sub-TLV values are copied into the
// LSP's arena rather than individually allocated.
func (l *LSP) decodeExtISReach(value []byte) error {
	// Each entry occupies at least the fixed header, which bounds the
	// entry count; growing up front keeps the slot appends growth-free.
	l.Neighbors = slices.Grow(l.Neighbors, len(value)/isNeighborFixedLen)
	for off := 0; off < len(value); {
		if off+isNeighborFixedLen > len(value) {
			return ErrTruncated
		}
		n := l.nextNeighbor()
		copy(n.System[:], value[off:off+6])
		n.Pseudonode = value[off+6]
		n.Metric = uint32(value[off+7])<<16 | uint32(value[off+8])<<8 | uint32(value[off+9])
		subLen := int(value[off+10])
		off += isNeighborFixedLen
		if off+subLen > len(value) {
			return ErrTruncated
		}
		sub := value[off : off+subLen]
		for soff := 0; soff < len(sub); {
			if soff+2 > len(sub) {
				return ErrTruncated
			}
			st := TLVType(sub[soff])
			sl := int(sub[soff+1])
			soff += 2
			if soff+sl > len(sub) {
				return ErrTruncated
			}
			n.SubTLVs = append(n.SubTLVs, RawTLV{Type: st, Value: l.arenaCopy(sub[soff : soff+sl])})
			soff += sl
		}
		off += subLen
	}
	return nil
}

// IPPrefix is one entry of the Extended IP Reachability TLV
// (RFC 5305 §4): a 32-bit metric and a variable-length prefix.
type IPPrefix struct {
	Metric uint32
	// Addr is the network address in host order; bits beyond Length
	// must be zero.
	Addr uint32
	// Length is the prefix length, 0–32.
	Length uint8
	// Down is the up/down bit used for interlevel leaking.
	Down bool
}

// String renders "a.b.c.d/len".
func (p IPPrefix) String() string {
	return fmt.Sprintf("%s/%d", topo.FormatIPv4(p.Addr), p.Length)
}

// AdvKey returns the prefix identity without the metric.
func (p IPPrefix) AdvKey() AdvKey {
	return AdvKey{Pseudonode: p.Length, Kind: AdvPrefix, Value: p.Addr}
}

// appendExtIPReach writes the prefixes as TLV 135s, split like TLV 22.
func appendExtIPReach(b []byte, prefixes []IPPrefix) []byte {
	start := -1 // header offset of the open TLV
	for _, p := range prefixes {
		octets := int(p.Length+7) / 8
		if start < 0 || len(b)-start-2+5+octets > maxTLVValueLength {
			start = len(b)
			b = append(b, byte(TLVExtIPReach), 0)
		}
		ctrl := p.Length & 0x3f
		if p.Down {
			ctrl |= 0x80
		}
		b = append(b, byte(p.Metric>>24), byte(p.Metric>>16), byte(p.Metric>>8), byte(p.Metric), ctrl)
		addr := [4]byte{byte(p.Addr >> 24), byte(p.Addr >> 16), byte(p.Addr >> 8), byte(p.Addr)}
		b = append(b, addr[:octets]...)
		closeTLV(b, start)
	}
	return b
}

// errBadPrefixLen is preconstructed so the reject path stays
// allocation-free on corrupted captures.
var errBadPrefixLen = errors.New("isis: bad prefix length")

// decodeExtIPReach appends one TLV 135 value's entries to l.Prefixes
// in place; prefix entries are plain values, so the reused backing
// array is the only storage involved.
func (l *LSP) decodeExtIPReach(value []byte) error {
	// Metric + control byte is the minimum entry, bounding the count.
	l.Prefixes = slices.Grow(l.Prefixes, len(value)/5)
	for off := 0; off < len(value); {
		if off+5 > len(value) {
			return ErrTruncated
		}
		var p IPPrefix
		p.Metric = uint32(value[off])<<24 | uint32(value[off+1])<<16 | uint32(value[off+2])<<8 | uint32(value[off+3])
		ctrl := value[off+4]
		p.Down = ctrl&0x80 != 0
		subPresent := ctrl&0x40 != 0
		p.Length = ctrl & 0x3f
		if p.Length > 32 {
			return errBadPrefixLen
		}
		octets := int(p.Length+7) / 8
		off += 5
		if off+octets > len(value) {
			return ErrTruncated
		}
		var addr [4]byte
		copy(addr[:], value[off:off+octets])
		p.Addr = uint32(addr[0])<<24 | uint32(addr[1])<<16 | uint32(addr[2])<<8 | uint32(addr[3])
		off += octets
		if subPresent {
			if off >= len(value) {
				return ErrTruncated
			}
			subLen := int(value[off])
			off++
			if off+subLen > len(value) {
				return ErrTruncated
			}
			off += subLen // sub-TLVs ignored
		}
		l.Prefixes = append(l.Prefixes, p)
	}
	return nil
}
