package isis

import (
	"errors"
	"reflect"
	"testing"

	"netfail/internal/topo"
)

func sampleEntries(n int) []LSPEntry {
	entries := make([]LSPEntry, n)
	for i := range entries {
		entries[i] = LSPEntry{
			Lifetime: uint16(1000 + i),
			ID:       LSPID{System: topo.SystemIDFromIndex(i + 1)},
			Sequence: uint32(i * 3),
			Checksum: uint16(i),
		}
	}
	return entries
}

func TestCSNPRoundTrip(t *testing.T) {
	orig := &CSNP{
		Source:  topo.SystemIDFromIndex(1),
		StartID: LSPID{},
		EndID:   LSPID{System: topo.SystemID{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Pseudonode: 0xff, Fragment: 0xff},
		Entries: sampleEntries(40), // spans multiple TLVs (15 per TLV)
	}
	wire, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got CSNP
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, orig) {
		t.Errorf("round trip mismatch")
	}
}

func TestPSNPRoundTrip(t *testing.T) {
	orig := &PSNP{
		Source:  topo.SystemIDFromIndex(2),
		Entries: sampleEntries(3),
	}
	wire, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got PSNP
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, orig) {
		t.Errorf("round trip mismatch")
	}
}

func TestSNPDecodeErrors(t *testing.T) {
	var c CSNP
	if err := c.DecodeFromBytes(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("CSNP nil: %v", err)
	}
	var p PSNP
	if err := p.DecodeFromBytes([]byte{IRPD}); !errors.Is(err, ErrTruncated) {
		t.Errorf("PSNP short: %v", err)
	}
}
