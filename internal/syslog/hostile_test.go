package syslog

import (
	"slices"
	"testing"
	"time"
)

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

// TestTokenizerDistinctTextsCostStaysFlat feeds one Tokenizer lines
// whose texts are all distinct — what a hostile or broken sender
// produces, and what netfail-serve's UDP source accepts for as long as
// it runs — and holds the per-line cost with the text table at 2^16
// entries, and past its limit, within 4x of the cost while it held its
// first 2^12.
func TestTokenizerDistinctTextsCostStaysFlat(t *testing.T) {
	line := []byte("<189>Mar 13 04:05:06 h 1: %M-1-X: text 0000000")
	digits := line[len(line)-7:]
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	var m Message
	n := 0
	step := func() {
		for i, v := len(digits)-1, n; i >= 0; i, v = i-1, v/10 {
			digits[i] = byte('0' + v%10)
		}
		n++
		if err := tk.ParseBytes(line, ref, &m); err != nil {
			t.Fatal(err)
		}
	}
	const window = 1 << 12
	first := medianChunkCost(window, step)
	for n < internLimit-window {
		step()
	}
	full := medianChunkCost(window, step)
	if got := tk.texts.Len(); got != internLimit {
		t.Fatalf("text table holds %d entries after %d lines, want the limit %d", got, n, internLimit)
	}
	past := medianChunkCost(window, step)
	t.Logf("per line: %v for the first 2^12 texts, %v at 2^16, %v past the limit", first, full, past)
	if full > 4*first || past > 4*first {
		t.Errorf("per-line cost grew with the table: %v, then %v at 2^16 and %v past the limit", first, full, past)
	}
}

// TestTokenizerDistinctSymbolsStayBounded feeds one Tokenizer lines
// whose hostnames and mnemonics are all distinct, and holds the symbol
// table at its limit, the parse correct past it, and the per-line cost
// with the table full within 4x of the cost while it held its first
// 2^12 entries. Without a limit the table kept every one: 400,000
// entries after 200,000 lines.
func TestTokenizerDistinctSymbolsStayBounded(t *testing.T) {
	line := []byte("<189>Mar 13 04:05:06 h0000000 1: %M0000000-1-X: text")
	host, mnem := line[21:29], line[34:42]
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	var m Message
	n := 0
	step := func() {
		for i, v := len(host)-1, n; i >= 1; i, v = i-1, v/10 {
			host[i], mnem[i] = byte('0'+v%10), byte('0'+v%10)
		}
		n++
		if err := tk.ParseBytes(line, ref, &m); err != nil {
			t.Fatal(err)
		}
		if m.Hostname != string(host) || m.Mnemonic != string(mnem)+"-1-X" {
			t.Fatalf("line %d parsed as host %q, mnemonic %q", n, m.Hostname, m.Mnemonic)
		}
	}
	const window = 1 << 12
	first := medianChunkCost(window, step)
	for n < internLimit {
		step()
	}
	past := medianChunkCost(window, step)
	if got := tk.symbols.Len(); got != internLimit {
		t.Fatalf("symbol table holds %d entries after %d lines, want the limit %d", got, n, internLimit)
	}
	t.Logf("per line: %v for the first 2^12 symbols, %v past the limit", first, past)
	if past > 4*first {
		t.Errorf("per-line cost grew with the table: %v, then %v past the limit", first, past)
	}
}
