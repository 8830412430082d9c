package isis

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"netfail/internal/topo"
)

// Tests of the per-decoder hostname table: it belongs to one LSP, a
// copy never writes into its source's, one LSP decoding a stream keeps
// one table, and its cost per LSP stays flat however many distinct
// names a hostile stream sends.

// hostnameWire encodes a zero-lifetime LSP — exempt from the checksum,
// so its hostname can be rewritten in place — and returns it with the
// slice of it that holds the name's seven digits.
func hostnameWire(t *testing.T) (wire, digits []byte) {
	t.Helper()
	l := NewLSP(topo.SystemIDFromIndex(1), 1, "host-0000000", nil, nil)
	l.Lifetime = 0
	wire, err := l.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(wire, []byte("0000000"))
	return wire, wire[at : at+7]
}

// putDigits writes n into digits as zero-padded decimal.
func putDigits(digits []byte, n int) {
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + n%10)
		n /= 10
	}
}

func TestLSPCopyStartsItsOwnHostnameTable(t *testing.T) {
	wire, digits := hostnameWire(t)
	var src LSP
	if err := src.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	cp := src
	putDigits(digits, 1)
	if err := cp.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if cp.Hostname != "host-0000001" {
		t.Fatalf("copy decoded hostname %q", cp.Hostname)
	}
	if src.hostnames.Len() != 1 {
		t.Errorf("the copy's name landed in its source's table (%d names)", src.hostnames.Len())
	}
	if cp.owner != &cp || cp.hostnames.Len() != 1 {
		t.Errorf("the copy did not start a table of its own (%d names)", cp.hostnames.Len())
	}
}

// TestLSPKeepsOneHostnameTable decodes a stream that repeats four names
// into one LSP, the way the listener does: the table holds each name
// once, and a decoded name does not change when the wire it came from
// is rewritten.
func TestLSPKeepsOneHostnameTable(t *testing.T) {
	wire, digits := hostnameWire(t)
	var l LSP
	names := make([]string, 9)
	for i := range names {
		putDigits(digits, i%4)
		if err := l.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
		names[i] = l.Hostname
		if l.owner != &l || l.hostnames.Len() != min(i+1, 4) {
			t.Fatalf("round %d: the table holds %d names, want %d", i, l.hostnames.Len(), min(i+1, 4))
		}
	}
	for i, got := range names {
		if want := fmt.Sprintf("host-%07d", i%4); got != want {
			t.Errorf("round %d decoded %q, now reads %q", i, want, got)
		}
	}
}

// medianChunkCost runs step n times and returns the median per-step
// cost over eight equal chunks, so that a collection landing in one
// chunk does not decide the verdict.
func medianChunkCost(n int, step func()) time.Duration {
	costs := make([]time.Duration, 8)
	for c := range costs {
		start := time.Now()
		for i := 0; i < n/len(costs); i++ {
			step()
		}
		costs[c] = time.Since(start) / time.Duration(n/len(costs))
	}
	slices.Sort(costs)
	return (costs[3] + costs[4]) / 2
}

// TestLSPDecodeDistinctHostnamesCostStaysFlat feeds one decoder LSPs
// whose hostnames are all distinct, as a corrupted or hostile capture
// does, and holds the per-LSP cost with the table at 2^16 names, and
// past its limit, within 4x of the cost while it held its first 2^12.
func TestLSPDecodeDistinctHostnamesCostStaysFlat(t *testing.T) {
	wire, digits := hostnameWire(t)
	var l LSP
	n := 0
	step := func() {
		putDigits(digits, n)
		n++
		if err := l.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
	}
	const window = 1 << 12
	first := medianChunkCost(window, step)
	for n < hostnameInternLimit-window {
		step()
	}
	full := medianChunkCost(window, step)
	if got := l.hostnames.Len(); got != hostnameInternLimit {
		t.Fatalf("table holds %d names after %d LSPs, want the limit %d", got, n, hostnameInternLimit)
	}
	past := medianChunkCost(window, step)
	t.Logf("per LSP: %v for the first 2^12 names, %v at 2^16, %v past the limit", first, full, past)
	if full > 4*first || past > 4*first {
		t.Errorf("per-LSP cost grew with the table: %v, then %v at 2^16 and %v past the limit", first, full, past)
	}
}
