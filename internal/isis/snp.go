package isis

import (
	"encoding/binary"
	"fmt"

	"netfail/internal/topo"
)

// LSPEntry is one element of the LSP Entries TLV (9) carried in CSNPs
// and PSNPs: enough of an LSP's identity to compare database
// freshness.
type LSPEntry struct {
	Lifetime uint16
	ID       LSPID
	Sequence uint32
	Checksum uint16
}

const lspEntryLen = 2 + 8 + 4 + 2

func appendLSPEntries(b []byte, entries []LSPEntry) []byte {
	const perTLV = maxTLVValueLength / lspEntryLen
	for start := 0; start < len(entries); start += perTLV {
		end := start + perTLV
		if end > len(entries) {
			end = len(entries)
		}
		var val []byte
		for _, e := range entries[start:end] {
			var buf [lspEntryLen]byte
			binary.BigEndian.PutUint16(buf[0:], e.Lifetime)
			copy(buf[2:8], e.ID.System[:])
			buf[8] = e.ID.Pseudonode
			buf[9] = e.ID.Fragment
			binary.BigEndian.PutUint32(buf[10:], e.Sequence)
			binary.BigEndian.PutUint16(buf[14:], e.Checksum)
			val = append(val, buf[:]...)
		}
		b = appendTLV(b, TLVLSPEntries, val)
	}
	return b
}

func parseLSPEntries(value []byte) ([]LSPEntry, error) {
	if len(value)%lspEntryLen != 0 {
		return nil, ErrTruncated
	}
	var out []LSPEntry
	for off := 0; off < len(value); off += lspEntryLen {
		var e LSPEntry
		e.Lifetime = binary.BigEndian.Uint16(value[off:])
		e.ID = lspIDFromBytes(value[off+2 : off+10])
		e.Sequence = binary.BigEndian.Uint32(value[off+10:])
		e.Checksum = binary.BigEndian.Uint16(value[off+14:])
		out = append(out, e)
	}
	return out, nil
}

// CSNP is a complete sequence numbers PDU: a digest of the sender's
// whole LSP database over a range of LSP IDs.
type CSNP struct {
	Source  topo.SystemID
	StartID LSPID
	EndID   LSPID
	Entries []LSPEntry
}

// Encode serializes the CSNP.
func (c *CSNP) Encode() ([]byte, error) {
	b := appendCommonHeader(nil, TypeCSNPL2, csnpHeaderLen)
	b = append(b, 0, 0) // PDU length, patched below
	b = append(b, c.Source[:]...)
	b = append(b, 0) // source circuit: zero for point-to-point
	b = c.StartID.appendTo(b)
	b = c.EndID.appendTo(b)
	b = appendLSPEntries(b, c.Entries)
	if len(b) > 0xffff {
		return nil, fmt.Errorf("isis: CSNP exceeds maximum PDU size")
	}
	putUint16(b, commonHeaderLen, uint16(len(b)))
	return b, nil
}

// DecodeFromBytes parses a CSNP.
func (c *CSNP) DecodeFromBytes(data []byte) error {
	typ, err := PeekType(data)
	if err != nil {
		return err
	}
	if typ != TypeCSNPL2 {
		return fmt.Errorf("%w: got %v, want %v", ErrUnknownType, typ, TypeCSNPL2)
	}
	if len(data) < csnpHeaderLen {
		return ErrTruncated
	}
	pduLen := int(binary.BigEndian.Uint16(data[commonHeaderLen:]))
	if pduLen > len(data) || pduLen < csnpHeaderLen {
		return ErrTruncated
	}
	data = data[:pduLen]

	*c = CSNP{}
	copy(c.Source[:], data[10:16])
	c.StartID = lspIDFromBytes(data[17:25])
	c.EndID = lspIDFromBytes(data[25:33])
	return parseTLVs(data[csnpHeaderLen:], func(typ TLVType, value []byte) error {
		if typ != TLVLSPEntries {
			return nil
		}
		entries, err := parseLSPEntries(value)
		if err != nil {
			return err
		}
		c.Entries = append(c.Entries, entries...)
		return nil
	})
}

// PSNP is a partial sequence numbers PDU, used to acknowledge or
// request individual LSPs on point-to-point circuits.
type PSNP struct {
	Source  topo.SystemID
	Entries []LSPEntry
}

// Encode serializes the PSNP.
func (p *PSNP) Encode() ([]byte, error) {
	b := appendCommonHeader(nil, TypePSNPL2, psnpHeaderLen)
	b = append(b, 0, 0) // PDU length, patched below
	b = append(b, p.Source[:]...)
	b = append(b, 0) // source circuit
	b = appendLSPEntries(b, p.Entries)
	if len(b) > 0xffff {
		return nil, fmt.Errorf("isis: PSNP exceeds maximum PDU size")
	}
	putUint16(b, commonHeaderLen, uint16(len(b)))
	return b, nil
}

// DecodeFromBytes parses a PSNP.
func (p *PSNP) DecodeFromBytes(data []byte) error {
	typ, err := PeekType(data)
	if err != nil {
		return err
	}
	if typ != TypePSNPL2 {
		return fmt.Errorf("%w: got %v, want %v", ErrUnknownType, typ, TypePSNPL2)
	}
	if len(data) < psnpHeaderLen {
		return ErrTruncated
	}
	pduLen := int(binary.BigEndian.Uint16(data[commonHeaderLen:]))
	if pduLen > len(data) || pduLen < psnpHeaderLen {
		return ErrTruncated
	}
	data = data[:pduLen]

	*p = PSNP{}
	copy(p.Source[:], data[10:16])
	return parseTLVs(data[psnpHeaderLen:], func(typ TLVType, value []byte) error {
		if typ != TLVLSPEntries {
			return nil
		}
		entries, err := parseLSPEntries(value)
		if err != nil {
			return err
		}
		p.Entries = append(p.Entries, entries...)
		return nil
	})
}
