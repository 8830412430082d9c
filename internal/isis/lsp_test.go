package isis

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"netfail/internal/topo"
)

func sampleLSP() *LSP {
	sys := topo.SystemIDFromIndex(7)
	nbr1 := topo.SystemIDFromIndex(8)
	nbr2 := topo.SystemIDFromIndex(9)
	return &LSP{
		ID:       LSPID{System: sys},
		Sequence: 0x1234,
		Lifetime: 1199,
		Hostname: "riv-core-01",
		Areas:    [][]byte{{0x49, 0x00, 0x01}},
		IfaceAddrs: []uint32{
			137<<24 | 164<<16 | 0<<8 | 0,
			137<<24 | 164<<16 | 0<<8 | 2,
		},
		Neighbors: []ISNeighbor{
			{System: nbr1, Metric: 10},
			{System: nbr2, Metric: 100, SubTLVs: []RawTLV{{Type: 6, Value: []byte{1, 2, 3, 4}}}},
		},
		Prefixes: []IPPrefix{
			{Metric: 10, Addr: 137<<24 | 164<<16, Length: 31},
			{Metric: 0, Addr: 10<<24 | 1<<16 | 7, Length: 32},
			{Metric: 20, Addr: 0, Length: 0},
		},
	}
}

func TestLSPEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleLSP()
	wire, err := orig.AppendEncode(nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got LSP
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatalf("DecodeFromBytes: %v", err)
	}
	if got.ID != orig.ID || got.Sequence != orig.Sequence || got.Lifetime != orig.Lifetime {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Hostname != orig.Hostname {
		t.Errorf("hostname = %q, want %q", got.Hostname, orig.Hostname)
	}
	if !reflect.DeepEqual(got.Areas, orig.Areas) {
		t.Errorf("areas = %v, want %v", got.Areas, orig.Areas)
	}
	if !reflect.DeepEqual(got.IfaceAddrs, orig.IfaceAddrs) {
		t.Errorf("iface addrs = %v, want %v", got.IfaceAddrs, orig.IfaceAddrs)
	}
	if !reflect.DeepEqual(got.Neighbors, orig.Neighbors) {
		t.Errorf("neighbors = %+v, want %+v", got.Neighbors, orig.Neighbors)
	}
	if !reflect.DeepEqual(got.Prefixes, orig.Prefixes) {
		t.Errorf("prefixes = %+v, want %+v", got.Prefixes, orig.Prefixes)
	}
	if got.Checksum == 0 {
		t.Error("checksum not populated")
	}
}

func TestLSPChecksumValidation(t *testing.T) {
	wire, err := sampleLSP().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a TLV byte: decode must fail with ErrBadChecksum.
	// (Avoid ^0xff, which aliases 0x00 to 0xFF — the one corruption
	// a Fletcher checksum cannot detect.)
	wire[lspHeaderLen+2] += 3
	var got LSP
	if err := got.DecodeFromBytes(wire); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestLSPDecodeErrors(t *testing.T) {
	wire, err := sampleLSP().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"bad discriminator", func(b []byte) []byte { b[0] = 0x42; return b }, ErrBadDiscrim},
		{"bad version", func(b []byte) []byte { b[2] = 9; return b }, ErrBadVersion},
		{"bad id length", func(b []byte) []byte { b[3] = 8; return b }, ErrBadIDLength},
		{"wrong type", func(b []byte) []byte { b[4] = byte(TypeP2PHello); return b }, ErrUnknownType},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-4] }, ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf := append([]byte(nil), wire...)
			buf = c.mut(buf)
			var got LSP
			if err := got.DecodeFromBytes(buf); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestLSPManyNeighborsSplitsTLVs(t *testing.T) {
	// More neighbors than fit one 255-byte TLV must round trip.
	l := sampleLSP()
	l.Neighbors = nil
	for i := 0; i < 60; i++ {
		l.Neighbors = append(l.Neighbors, ISNeighbor{System: topo.SystemIDFromIndex(i + 100), Metric: uint32(i)})
	}
	l.Prefixes = nil
	for i := 0; i < 80; i++ {
		l.Prefixes = append(l.Prefixes, IPPrefix{Metric: uint32(i), Addr: uint32(i) << 8, Length: 24})
	}
	wire, err := l.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got LSP
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbors) != 60 || len(got.Prefixes) != 80 {
		t.Errorf("got %d neighbors, %d prefixes; want 60, 80", len(got.Neighbors), len(got.Prefixes))
	}
	if !reflect.DeepEqual(got.Neighbors, l.Neighbors) {
		t.Error("neighbors corrupted by TLV splitting")
	}
	if !reflect.DeepEqual(got.Prefixes, l.Prefixes) {
		t.Error("prefixes corrupted by TLV splitting")
	}
}

func TestLSPUnknownTLVPreserved(t *testing.T) {
	l := sampleLSP()
	l.Unknown = []RawTLV{{Type: 222, Value: []byte{9, 9, 9}}}
	wire, err := l.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got LSP
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Unknown, l.Unknown) {
		t.Errorf("unknown TLVs = %+v, want %+v", got.Unknown, l.Unknown)
	}
}

func TestLSPAdvKeys(t *testing.T) {
	l := sampleLSP()
	keys := make(map[AdvKey]bool)
	for i := range l.Neighbors {
		keys[l.Neighbors[i].AdvKey()] = true
	}
	if len(keys) != 2 {
		t.Errorf("neighbor keys = %v", keys)
	}
	for _, p := range l.Prefixes {
		keys[p.AdvKey()] = true
	}
	if len(keys) != 5 || !keys[IPPrefix{Addr: 137<<24 | 164<<16, Length: 31}.AdvKey()] {
		t.Errorf("neighbor and prefix keys = %v", keys)
	}
}

func TestLSPDecodeFuzzNoPanic(t *testing.T) {
	// Random garbage and truncations must return errors, not panic.
	rng := rand.New(rand.NewSource(99))
	wire, err := sampleLSP().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		buf := append([]byte(nil), wire...)
		switch trial % 3 {
		case 0:
			buf = buf[:rng.Intn(len(buf)+1)]
		case 1:
			for i := 0; i < 4; i++ {
				buf[rng.Intn(len(buf))] ^= byte(rng.Intn(256))
			}
		case 2:
			buf = make([]byte, rng.Intn(128))
			rng.Read(buf)
		}
		var got LSP
		_ = got.DecodeFromBytes(buf) // must not panic
	}
}

func TestPrefixRoundTripQuick(t *testing.T) {
	f := func(metric, addr uint32, length uint8, down bool) bool {
		length %= 33
		// Mask address to prefix length as a well-formed sender would.
		if length == 0 {
			addr = 0
		} else {
			addr &= ^uint32(0) << (32 - length)
		}
		in := []IPPrefix{{Metric: metric, Addr: addr, Length: length, Down: down}}
		wire := appendExtIPReach(nil, in)
		var l LSP
		err := l.decodeExtIPReach(wire[2:])
		return err == nil && len(l.Prefixes) == 1 && l.Prefixes[0] == in[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLSPString(t *testing.T) {
	s := sampleLSP().String()
	if s == "" {
		t.Error("empty String()")
	}
}
