package isis

import (
	"encoding/binary"
	"fmt"
)

// This file preserves, verbatim, the LSP decode path that the in-place
// tlvCursor/arena rewrite retired: the callback TLV walk with per-TLV
// value copies and freshly allocated neighbor/prefix lists. It exists
// only as the reference implementation for the differential tests in
// decode_equivalence_test.go — do not modernize it; its value is that
// it is the old code, byte for byte.

// parseTLVs walks the TLV region, invoking fn for each field. It
// returns ErrTruncated if a declared length overruns the buffer.
func parseTLVs(data []byte, fn func(typ TLVType, value []byte) error) error {
	cur := tlvCursor{data: data}
	for {
		typ, value, ok := cur.next()
		if !ok {
			break
		}
		if err := fn(typ, value); err != nil {
			return err
		}
	}
	return cur.err
}

func refDecodeLSP(l *LSP, data []byte) error {
	typ, err := PeekType(data)
	if err != nil {
		return err
	}
	if typ != TypeLSPL2 {
		return fmt.Errorf("%w: got %v, want %v", ErrUnknownType, typ, TypeLSPL2)
	}
	if len(data) < lspHeaderLen {
		return ErrTruncated
	}
	pduLen := int(binary.BigEndian.Uint16(data[commonHeaderLen:]))
	if pduLen > len(data) || pduLen < lspHeaderLen {
		return ErrTruncated
	}
	data = data[:pduLen]

	*l = LSP{}
	l.Lifetime = binary.BigEndian.Uint16(data[10:])
	l.ID = lspIDFromBytes(data[12:20])
	l.Sequence = binary.BigEndian.Uint32(data[20:])
	l.Checksum = binary.BigEndian.Uint16(data[24:])
	if l.Lifetime > 0 && !fletcherVerify(data[12:], 24-12) {
		return ErrBadChecksum
	}
	flags := data[26]
	l.Attached = flags&0x40 != 0
	l.Overload = flags&0x04 != 0

	return parseTLVs(data[lspHeaderLen:], func(typ TLVType, value []byte) error {
		switch typ {
		case TLVAreaAddresses:
			for off := 0; off < len(value); {
				alen := int(value[off])
				off++
				if off+alen > len(value) {
					return ErrTruncated
				}
				l.Areas = append(l.Areas, append([]byte(nil), value[off:off+alen]...))
				off += alen
			}
		case TLVHostname:
			l.Hostname = string(value)
		case TLVIPIfaceAddr:
			if len(value)%4 != 0 {
				return ErrTruncated
			}
			for off := 0; off < len(value); off += 4 {
				l.IfaceAddrs = append(l.IfaceAddrs, binary.BigEndian.Uint32(value[off:]))
			}
		case TLVExtISReach:
			ns, err := refParseExtISReach(value)
			if err != nil {
				return err
			}
			l.Neighbors = append(l.Neighbors, ns...)
		case TLVExtIPReach:
			ps, err := refParseExtIPReach(value)
			if err != nil {
				return err
			}
			l.Prefixes = append(l.Prefixes, ps...)
		default:
			l.Unknown = append(l.Unknown, RawTLV{Type: typ, Value: append([]byte(nil), value...)})
		}
		return nil
	})
}

func refParseExtISReach(value []byte) ([]ISNeighbor, error) {
	// Each entry occupies at least the fixed header, which bounds the
	// entry count and keeps the append below growth-free.
	out := make([]ISNeighbor, 0, len(value)/isNeighborFixedLen)
	for off := 0; off < len(value); {
		if off+isNeighborFixedLen > len(value) {
			return nil, ErrTruncated
		}
		var n ISNeighbor
		copy(n.System[:], value[off:off+6])
		n.Pseudonode = value[off+6]
		n.Metric = uint32(value[off+7])<<16 | uint32(value[off+8])<<8 | uint32(value[off+9])
		subLen := int(value[off+10])
		off += isNeighborFixedLen
		if off+subLen > len(value) {
			return nil, ErrTruncated
		}
		sub := value[off : off+subLen]
		for soff := 0; soff < len(sub); {
			if soff+2 > len(sub) {
				return nil, ErrTruncated
			}
			st := TLVType(sub[soff])
			sl := int(sub[soff+1])
			soff += 2
			if soff+sl > len(sub) {
				return nil, ErrTruncated
			}
			n.SubTLVs = append(n.SubTLVs, RawTLV{Type: st, Value: append([]byte(nil), sub[soff:soff+sl]...)})
			soff += sl
		}
		off += subLen
		out = append(out, n)
	}
	return out, nil
}

func refParseExtIPReach(value []byte) ([]IPPrefix, error) {
	// Metric + control byte is the minimum entry, bounding the count.
	out := make([]IPPrefix, 0, len(value)/5)
	for off := 0; off < len(value); {
		if off+5 > len(value) {
			return nil, ErrTruncated
		}
		var p IPPrefix
		p.Metric = uint32(value[off])<<24 | uint32(value[off+1])<<16 | uint32(value[off+2])<<8 | uint32(value[off+3])
		ctrl := value[off+4]
		p.Down = ctrl&0x80 != 0
		subPresent := ctrl&0x40 != 0
		p.Length = ctrl & 0x3f
		if p.Length > 32 {
			return nil, fmt.Errorf("isis: bad prefix length %d", p.Length)
		}
		octets := int(p.Length+7) / 8
		off += 5
		if off+octets > len(value) {
			return nil, ErrTruncated
		}
		var addr [4]byte
		copy(addr[:], value[off:off+octets])
		p.Addr = uint32(addr[0])<<24 | uint32(addr[1])<<16 | uint32(addr[2])<<8 | uint32(addr[3])
		off += octets
		if subPresent {
			if off >= len(value) {
				return nil, ErrTruncated
			}
			subLen := int(value[off])
			off++
			if off+subLen > len(value) {
				return nil, ErrTruncated
			}
			off += subLen // sub-TLVs ignored
		}
		out = append(out, p)
	}
	return out, nil
}
