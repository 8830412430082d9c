package isis

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"netfail/internal/faultinject"
	"netfail/internal/topo"
)

// Differential tests pinning the in-place decode to the retired
// reference implementation (decode_reference_test.go): same
// accept/reject decision and identical decoded structure over valid
// encodings, corrupted captures, and arbitrary fuzz input — with the
// decode target both fresh and dirty from previous decodes, since slot
// reuse is exactly where a stale-state bug would hide.

// sameLSP compares the exported decode output of two LSPs, tolerating
// nil versus empty slices (a reused LSP holds empty backing arrays
// where a fresh decode holds nil).
func sameLSP(a, b *LSP) string {
	if a.ID != b.ID || a.Sequence != b.Sequence || a.Lifetime != b.Lifetime || a.Checksum != b.Checksum {
		return fmt.Sprintf("header: %+v vs %+v", a, b)
	}
	if a.Attached != b.Attached || a.Overload != b.Overload {
		return "flags differ"
	}
	if a.Hostname != b.Hostname {
		return fmt.Sprintf("hostname: %q vs %q", a.Hostname, b.Hostname)
	}
	if len(a.Areas) != len(b.Areas) {
		return fmt.Sprintf("area count: %d vs %d", len(a.Areas), len(b.Areas))
	}
	for i := range a.Areas {
		if !bytes.Equal(a.Areas[i], b.Areas[i]) {
			return fmt.Sprintf("area %d: %x vs %x", i, a.Areas[i], b.Areas[i])
		}
	}
	if len(a.IfaceAddrs) != len(b.IfaceAddrs) {
		return fmt.Sprintf("iface addr count: %d vs %d", len(a.IfaceAddrs), len(b.IfaceAddrs))
	}
	for i := range a.IfaceAddrs {
		if a.IfaceAddrs[i] != b.IfaceAddrs[i] {
			return fmt.Sprintf("iface addr %d differs", i)
		}
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return fmt.Sprintf("neighbor count: %d vs %d", len(a.Neighbors), len(b.Neighbors))
	}
	for i := range a.Neighbors {
		x, y := &a.Neighbors[i], &b.Neighbors[i]
		if x.System != y.System || x.Pseudonode != y.Pseudonode || x.Metric != y.Metric {
			return fmt.Sprintf("neighbor %d: %+v vs %+v", i, x, y)
		}
		if len(x.SubTLVs) != len(y.SubTLVs) {
			return fmt.Sprintf("neighbor %d sub-TLV count: %d vs %d", i, len(x.SubTLVs), len(y.SubTLVs))
		}
		for j := range x.SubTLVs {
			if x.SubTLVs[j].Type != y.SubTLVs[j].Type || !bytes.Equal(x.SubTLVs[j].Value, y.SubTLVs[j].Value) {
				return fmt.Sprintf("neighbor %d sub-TLV %d differs", i, j)
			}
		}
	}
	if len(a.Prefixes) != len(b.Prefixes) {
		return fmt.Sprintf("prefix count: %d vs %d", len(a.Prefixes), len(b.Prefixes))
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return fmt.Sprintf("prefix %d: %+v vs %+v", i, a.Prefixes[i], b.Prefixes[i])
		}
	}
	if len(a.Unknown) != len(b.Unknown) {
		return fmt.Sprintf("unknown TLV count: %d vs %d", len(a.Unknown), len(b.Unknown))
	}
	for i := range a.Unknown {
		if a.Unknown[i].Type != b.Unknown[i].Type || !bytes.Equal(a.Unknown[i].Value, b.Unknown[i].Value) {
			return fmt.Sprintf("unknown TLV %d differs", i)
		}
	}
	return ""
}

// checkDecodeEquivalence runs the reference and in-place decoders over
// data — the latter into both a fresh and a caller-dirtied LSP — and
// requires identical accept/reject decisions and identical output.
// Error contents are not compared: the rewrite replaced dynamic error
// strings with preconstructed ones.
func checkDecodeEquivalence(t testing.TB, data []byte, reused *LSP) {
	t.Helper()
	var ref LSP
	refErr := refDecodeLSP(&ref, data)
	var fresh LSP
	freshErr := fresh.DecodeFromBytes(data)
	if (refErr == nil) != (freshErr == nil) {
		t.Fatalf("accept/reject diverges on %x: reference err=%v, rewrite err=%v", data, refErr, freshErr)
	}
	reusedErr := reused.DecodeFromBytes(data)
	if (refErr == nil) != (reusedErr == nil) {
		t.Fatalf("accept/reject diverges on reused LSP for %x: reference err=%v, rewrite err=%v", data, refErr, reusedErr)
	}
	if refErr != nil {
		return
	}
	if diff := sameLSP(&ref, &fresh); diff != "" {
		t.Fatalf("fresh decode diverges on %x: %s", data, diff)
	}
	if diff := sameLSP(&ref, reused); diff != "" {
		t.Fatalf("reused decode diverges on %x: %s", data, diff)
	}
}

// equivalenceLSPs spans the decoder's structure space: minimal,
// typical, TLV-splitting, link-identified, unknown-TLV-bearing, and
// zero-lifetime (checksum-exempt) LSPs.
func equivalenceLSPs() []*LSP {
	withLinks := benchLSP()
	for i := range withLinks.Neighbors {
		withLinks.Neighbors[i].SetLinkIDs(uint32(i+1), uint32(i+100))
	}
	withUnknown := sampleLSP()
	withUnknown.Unknown = []RawTLV{{Type: 222, Value: []byte{9, 9, 9}}, {Type: 250, Value: nil}}
	expired := sampleLSP()
	expired.Lifetime = 0
	big := sampleLSP()
	big.Neighbors = nil
	big.Prefixes = nil
	for i := 0; i < 60; i++ {
		big.Neighbors = append(big.Neighbors, ISNeighbor{System: topo.SystemIDFromIndex(i + 100), Metric: uint32(i)})
		big.Prefixes = append(big.Prefixes, IPPrefix{Metric: uint32(i), Addr: uint32(i) << 8, Length: 24, Down: i%3 == 0})
	}
	return []*LSP{
		NewLSP(topo.SystemIDFromIndex(1), 1, "", nil, nil),
		sampleLSP(),
		benchLSP(),
		withLinks,
		withUnknown,
		expired,
		big,
	}
}

func TestDecodeMatchesReferenceOnCorruptedCorpus(t *testing.T) {
	var reused LSP
	for _, l := range equivalenceLSPs() {
		wire, err := l.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeEquivalence(t, wire, &reused)
		for seed := int64(1); seed <= 8; seed++ {
			corrupted, _ := faultinject.Corrupt(wire, faultinject.Plan{
				Seed: seed,
				Rate: 0.7,
				Modes: []faultinject.Mode{
					faultinject.BitFlip, faultinject.TornWrite, faultinject.TruncateFinal,
				},
			})
			checkDecodeEquivalence(t, corrupted, &reused)
		}
	}
}

// TestLSPDecodeReuseMatchesFresh pins the scratch-reuse contract
// directly: decoding B into an LSP that previously decoded a larger A
// (or failed a corrupt decode) yields exactly what a fresh decode of B
// yields.
func TestLSPDecodeReuseMatchesFresh(t *testing.T) {
	lsps := equivalenceLSPs()
	big, err := lsps[len(lsps)-1].AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lsps {
		wire, err := l.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		var fresh LSP
		if err := fresh.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}

		var reused LSP
		if err := reused.DecodeFromBytes(big); err != nil {
			t.Fatal(err)
		}
		if err := reused.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
		if diff := sameLSP(&fresh, &reused); diff != "" {
			t.Errorf("decode after big LSP diverges: %s", diff)
		}

		// A failed decode must not poison the next one.
		bad := append([]byte(nil), big...)
		bad[len(bad)-1] ^= 0x55 // damage the tail: checksum or TLV framing breaks
		_ = reused.DecodeFromBytes(bad)
		if err := reused.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
		if diff := sameLSP(&fresh, &reused); diff != "" {
			t.Errorf("decode after failed decode diverges: %s", diff)
		}
	}
}

// TestLSPDecodeDoesNotAliasInput pins arena ownership: a decoded LSP
// retains no view of the caller's buffer, which the listener relies on
// when it installs decoded LSPs while the read buffer is recycled.
func TestLSPDecodeDoesNotAliasInput(t *testing.T) {
	l := equivalenceLSPs()[4] // unknown-TLV variant: exercises every copy path
	wire, err := l.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got, want LSP
	if err := got.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if err := want.DecodeFromBytes(append([]byte(nil), wire...)); err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xff
	}
	if diff := sameLSP(&want, &got); diff != "" {
		t.Errorf("decoded LSP aliases its input: %s", diff)
	}
}

func FuzzLSPDecodeMatchesReference(f *testing.F) {
	for _, l := range equivalenceLSPs() {
		wire, err := l.AppendEncode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		corrupted, _ := faultinject.Corrupt(wire, faultinject.Plan{Seed: 3, Rate: 0.9})
		f.Add(corrupted)
	}
	dirty, err := equivalenceLSPs()[2].AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Dirty the reused LSP first so slot reuse is always exercised.
		var reused LSP
		if err := reused.DecodeFromBytes(dirty); err != nil {
			t.Fatal(err)
		}
		checkDecodeEquivalence(t, data, &reused)
	})
}

// TestAdvKeysMatchStringReference pins the integer advertisement keys
// to the string renderings they replaced: over a value space small
// enough to collide, two entries share an AdvKey exactly when they
// shared a string key, and a neighbor never shares one with a prefix.
func TestAdvKeysMatchStringReference(t *testing.T) {
	neighborString := func(n ISNeighbor) string {
		if local, _, ok := n.LinkIDs(); ok {
			return fmt.Sprintf("%s.%02x#%08x", n.System, n.Pseudonode, local)
		}
		return fmt.Sprintf("%s.%02x", n.System, n.Pseudonode)
	}
	type nbr struct {
		Sys, Pseudonode uint8
		Local, Remote   uint8
		WithLinks       bool
	}
	mk := func(v nbr) ISNeighbor {
		n := ISNeighbor{System: topo.SystemID{5: v.Sys % 3}, Pseudonode: v.Pseudonode % 2}
		if v.WithLinks {
			n.SetLinkIDs(uint32(v.Local%3), uint32(v.Remote))
		}
		return n
	}
	neighbors := func(a, b nbr) bool {
		x, y := mk(a), mk(b)
		return (x.AdvKey() == y.AdvKey()) == (neighborString(x) == neighborString(y))
	}
	if err := quick.Check(neighbors, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	prefixes := func(addrA, addrB, lenA, lenB uint8, a nbr) bool {
		p := IPPrefix{Addr: uint32(addrA % 3), Length: lenA % 33, Metric: uint32(addrB)}
		q := IPPrefix{Addr: uint32(addrB % 3), Length: lenB % 33}
		return (p.AdvKey() == q.AdvKey()) == (p.String() == q.String()) && p.AdvKey() != mk(a).AdvKey()
	}
	if err := quick.Check(prefixes, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
