package isis

import (
	"encoding/binary"
	"fmt"

	"netfail/internal/intern"
	"netfail/internal/topo"
)

// LSP is a level-2 link-state PDU: the unit of information flooded
// through the network and recorded by the listener. The fields mirror
// the TLVs in Table 1 of the paper.
type LSP struct {
	// ID is the LSP identifier (system ID, pseudonode, fragment).
	ID LSPID
	// Sequence orders successive issues of the same LSP.
	Sequence uint32
	// Lifetime is the remaining lifetime in seconds.
	Lifetime uint16
	// Checksum is the ISO 8473 checksum as carried on the wire;
	// populated by AppendEncode and verified by DecodeFromBytes.
	Checksum uint16
	// Attached and Overload are the ATT and LSPDBOL header bits.
	Attached bool
	Overload bool

	// Hostname is the dynamic hostname (TLV 137); empty if absent.
	Hostname string
	// Areas holds the area addresses (TLV 1), raw.
	Areas [][]byte
	// IfaceAddrs lists IP interface addresses (TLV 132), host order.
	IfaceAddrs []uint32
	// Neighbors is the Extended IS Reachability list (TLV 22).
	Neighbors []ISNeighbor
	// Prefixes is the Extended IP Reachability list (TLV 135).
	Prefixes []IPPrefix
	// Unknown preserves TLVs this implementation does not decode.
	Unknown []RawTLV

	// arena is the decode scratch buffer: every byte slice a decoded
	// LSP retains (area addresses, sub-TLV values, unknown TLV values)
	// is a subrange of this one allocation instead of an individual
	// copy. It is sized to the PDU length — all retained bytes come
	// from the PDU, so it never grows mid-decode — and reused across
	// DecodeFromBytes calls on the same LSP, making steady-state decode
	// allocation-free. The decoded LSP owns its data; nothing aliases
	// the caller's input buffer.
	arena []byte

	// hostnames interns the dynamic hostname: a campaign's LSP stream
	// repeats the same few hundred names millions of times, so a warm
	// decode allocates none. The table belongs to the LSP that owner
	// points at; a copy of an LSP finds owner pointing at its source and
	// starts a table of its own instead of writing into the source's.
	hostnames intern.Table
	owner     *LSP
}

// hostnameInternLimit bounds a decoder's hostname table against
// corrupted captures: past it, unseen names are plain allocations.
const hostnameInternLimit = 1 << 16

// AppendEncode appends the LSP's wire form to dst, computing the PDU
// length and Fletcher checksum, and returns the extended slice. The
// Checksum field is updated with the computed value. Header and TLVs
// are written straight into dst — a TLV's length octet is patched once
// its entries are in — so a dst with room for the PDU makes the encode
// allocation-free.
func (l *LSP) AppendEncode(dst []byte) ([]byte, error) {
	base := len(dst)
	b := appendCommonHeader(dst, TypeLSPL2, lspHeaderLen)
	b = append(b, 0, 0) // PDU length, patched below
	b = append(b, byte(l.Lifetime>>8), byte(l.Lifetime))
	b = l.ID.appendTo(b)
	b = binary.BigEndian.AppendUint32(b, l.Sequence)
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
		start := len(b)
		b = append(b, byte(TLVAreaAddresses), 0)
		for _, a := range l.Areas {
			b = append(b, byte(len(a)))
			b = append(b, a...)
		}
		closeTLV(b, start)
	}
	if l.Hostname != "" {
		if len(l.Hostname) > maxTLVValueLength {
			return nil, fmt.Errorf("isis: hostname %q too long", l.Hostname)
		}
		b = append(b, byte(TLVHostname), byte(len(l.Hostname)))
		b = append(b, l.Hostname...)
	}
	const perTLV = 63 // addresses that fill a TLV, to 252 octets
	for i, a := range l.IfaceAddrs {
		if i%perTLV == 0 {
			b = append(b, byte(TLVIPIfaceAddr), byte(4*min(len(l.IfaceAddrs)-i, perTLV)))
		}
		b = binary.BigEndian.AppendUint32(b, a)
	}
	b = appendExtISReach(b, l.Neighbors)
	b = appendExtIPReach(b, l.Prefixes)
	for _, u := range l.Unknown {
		b = appendTLV(b, u.Type, u.Value)
	}

	pdu := b[base:]
	if len(pdu) > 0xffff {
		return nil, fmt.Errorf("isis: LSP %v exceeds maximum PDU size", l.ID)
	}
	putUint16(pdu, commonHeaderLen, uint16(len(pdu)))
	// Checksum covers LSP ID through end (offset 12 from PDU start).
	const ckOff = 24 // absolute offset of checksum field
	const ckStart = 12
	ck := fletcherChecksum(pdu[ckStart:], ckOff-ckStart)
	putUint16(pdu, ckOff, ck)
	l.Checksum = ck
	return b, nil
}

// resetForDecode wipes the LSP for a fresh decode while keeping every
// reusable backing array: the arena (regrown only if the new PDU is
// larger than any seen before), the outer slices, and — via
// nextNeighbor — the per-slot SubTLVs capacity inside Neighbors.
func (l *LSP) resetForDecode(pduLen int) {
	arena := l.arena
	if cap(arena) < pduLen {
		arena = make([]byte, 0, pduLen)
	}
	*l = LSP{
		arena:      arena[:0],
		Areas:      l.Areas[:0],
		IfaceAddrs: l.IfaceAddrs[:0],
		Neighbors:  l.Neighbors[:0],
		Prefixes:   l.Prefixes[:0],
		Unknown:    l.Unknown[:0],
		hostnames:  l.hostnames,
		owner:      l.owner,
	}
}

// hostnameTable returns the LSP's own hostname table, starting an
// empty one if the LSP has none yet or holds its source's as a copy.
func (l *LSP) hostnameTable() *intern.Table {
	if l.owner != l {
		l.hostnames, l.owner = intern.Table{Limit: hostnameInternLimit}, l
	}
	return &l.hostnames
}

// arenaCopy copies b into the arena and returns the full-capped
// subrange. The arena's capacity covers the whole PDU, and every copy
// is a disjoint region of it, so the append never grows.
func (l *LSP) arenaCopy(b []byte) []byte {
	n := len(l.arena)
	l.arena = append(l.arena, b...)
	return l.arena[n : n+len(b) : n+len(b)]
}

// nextNeighbor extends l.Neighbors by one slot, reusing the backing
// array — and, crucially, the slot's previous SubTLVs capacity, which
// a plain append of a fresh ISNeighbor would discard. Every other
// field is overwritten by the caller.
func (l *LSP) nextNeighbor() *ISNeighbor {
	if len(l.Neighbors) < cap(l.Neighbors) {
		l.Neighbors = l.Neighbors[:len(l.Neighbors)+1]
	} else {
		l.Neighbors = append(l.Neighbors, ISNeighbor{})
	}
	n := &l.Neighbors[len(l.Neighbors)-1]
	n.SubTLVs = n.SubTLVs[:0]
	return n
}

// DecodeFromBytes parses an LSP from wire bytes, validating the
// common header, PDU length, and Fletcher checksum. The decode is
// in-place: a tlvCursor walks the TLV region without callbacks or
// per-TLV copies, retained bytes land in the LSP's reused arena, and
// the hostname is interned — so decoding into a warm reused LSP
// allocates nothing.
func (l *LSP) DecodeFromBytes(data []byte) error {
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

	l.resetForDecode(pduLen)
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

	cur := tlvCursor{data: data[lspHeaderLen:]}
	for {
		typ, value, ok := cur.next()
		if !ok {
			break
		}
		switch typ {
		case TLVAreaAddresses:
			for off := 0; off < len(value); {
				alen := int(value[off])
				off++
				if off+alen > len(value) {
					return ErrTruncated
				}
				l.Areas = append(l.Areas, l.arenaCopy(value[off:off+alen]))
				off += alen
			}
		case TLVHostname:
			l.Hostname = l.hostnameTable().Intern(value)
		case TLVIPIfaceAddr:
			if len(value)%4 != 0 {
				return ErrTruncated
			}
			for off := 0; off < len(value); off += 4 {
				l.IfaceAddrs = append(l.IfaceAddrs, binary.BigEndian.Uint32(value[off:]))
			}
		case TLVExtISReach:
			if err := l.decodeExtISReach(value); err != nil {
				return err
			}
		case TLVExtIPReach:
			if err := l.decodeExtIPReach(value); err != nil {
				return err
			}
		default:
			l.Unknown = append(l.Unknown, RawTLV{Type: typ, Value: l.arenaCopy(value)})
		}
	}
	return cur.err
}

// NewLSP builds a minimal valid LSP for the given router state.
func NewLSP(sys topo.SystemID, seq uint32, hostname string, neighbors []ISNeighbor, prefixes []IPPrefix) *LSP {
	return &LSP{
		ID:        LSPID{System: sys},
		Sequence:  seq,
		Lifetime:  MaxAge,
		Hostname:  hostname,
		Areas:     [][]byte{{0x49, 0x00, 0x01}},
		Neighbors: neighbors,
		Prefixes:  prefixes,
	}
}

// String summarizes the LSP for logs.
func (l *LSP) String() string {
	return fmt.Sprintf("LSP %v seq=%#x life=%d host=%q nbrs=%d prefixes=%d",
		l.ID, l.Sequence, l.Lifetime, l.Hostname, len(l.Neighbors), len(l.Prefixes))
}
