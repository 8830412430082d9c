package isis

import (
	"testing"

	"netfail/internal/topo"
)

// FuzzDecode throws arbitrary bytes at the decoders that face the
// network, dispatched on PeekType as the listener does: none may
// panic, and whatever decodes must re-encode.
func FuzzDecode(f *testing.F) {
	// Seed with every PDU type that has a decoder, and one that has none.
	if wire, err := sampleLSP().Encode(); err == nil {
		f.Add(wire)
	}
	f.Add(appendCommonHeader(nil, TypeP2PHello, commonHeaderLen))
	if wire, err := (&CSNP{Source: topo.SystemIDFromIndex(1), Entries: sampleEntries(3)}).Encode(); err == nil {
		f.Add(wire)
	}
	if wire, err := (&PSNP{Source: topo.SystemIDFromIndex(2), Entries: sampleEntries(2)}).Encode(); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{IRPD})
	f.Add([]byte{IRPD, 27, 1, 0, 20, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := PeekType(data)
		if err != nil {
			return
		}
		var pdu interface {
			DecodeFromBytes([]byte) error
			Encode() ([]byte, error)
		}
		switch typ {
		case TypeLSPL2:
			pdu = new(LSP)
		case TypeCSNPL2:
			pdu = new(CSNP)
		case TypePSNPL2:
			pdu = new(PSNP)
		default:
			return
		}
		if err := pdu.DecodeFromBytes(data); err != nil {
			return
		}
		if _, err := pdu.Encode(); err != nil {
			t.Fatalf("decoded %v fails to re-encode: %v", typ, err)
		}
	})
}

// FuzzLSPRoundTrip: any LSP that decodes must decode identically
// after a re-encode (idempotent normalization).
func FuzzLSPRoundTrip(f *testing.F) {
	if wire, err := sampleLSP().Encode(); err == nil {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a LSP
		if err := a.DecodeFromBytes(data); err != nil {
			return
		}
		wire2, err := a.Encode()
		if err != nil {
			t.Skip() // some decodable inputs exceed encode limits
		}
		var b LSP
		if err := b.DecodeFromBytes(wire2); err != nil {
			t.Fatalf("re-encoded LSP does not decode: %v", err)
		}
		if a.ID != b.ID || a.Sequence != b.Sequence || len(a.Neighbors) != len(b.Neighbors) ||
			len(a.Prefixes) != len(b.Prefixes) || a.Hostname != b.Hostname {
			t.Fatalf("round trip not stable:\n a=%v\n b=%v", a.String(), b.String())
		}
	})
}
