package isis

import "testing"

// FuzzDecode throws arbitrary bytes at the decoder that faces the
// network, dispatched on PeekType as the listener does: nothing may
// panic, and whatever decodes must re-encode.
func FuzzDecode(f *testing.F) {
	// Seed with the one PDU type that has a decoder and the headers of
	// the three a live circuit also carries, which have none.
	if wire, err := sampleLSP().AppendEncode(nil); err == nil {
		f.Add(wire)
	}
	for _, typ := range []PDUType{TypeP2PHello, TypeCSNPL2, TypePSNPL2} {
		f.Add(appendCommonHeader(nil, typ, commonHeaderLen))
	}
	f.Add([]byte{})
	f.Add([]byte{IRPD})
	f.Add([]byte{IRPD, 27, 1, 0, 20, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := PeekType(data)
		if err != nil || typ != TypeLSPL2 {
			return
		}
		var lsp LSP
		if err := lsp.DecodeFromBytes(data); err != nil {
			return
		}
		if _, err := lsp.AppendEncode(nil); err != nil {
			t.Fatalf("decoded LSP fails to re-encode: %v", err)
		}
	})
}

// FuzzLSPRoundTrip: any LSP that decodes must decode identically
// after a re-encode (idempotent normalization).
func FuzzLSPRoundTrip(f *testing.F) {
	if wire, err := sampleLSP().AppendEncode(nil); err == nil {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a LSP
		if err := a.DecodeFromBytes(data); err != nil {
			return
		}
		wire2, err := a.AppendEncode(nil)
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
