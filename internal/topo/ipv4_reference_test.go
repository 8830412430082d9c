package topo

import (
	"fmt"
	"testing"
)

// refParseIPv4 is the retired fmt.Sscanf parser, kept verbatim as the
// oracle for FuzzParseIPv4MatchesReference. It also took spellings
// ParseIPv4 now rejects: a sign ("+1.2.3.4"), spaces before an octet
// ("1. 2.3.4"), leading zeros ("01.2.3.4") and trailing bytes
// ("1.2.3.4x").
func refParseIPv4(s string) (uint32, error) {
	var b [4]int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &b[0], &b[1], &b[2], &b[3]); err != nil {
		return 0, fmt.Errorf("topo: bad IPv4 address %q", s)
	}
	var v uint32
	for _, o := range b {
		if o < 0 || o > 255 {
			return 0, fmt.Errorf("topo: bad IPv4 address %q", s)
		}
		v = v<<8 | uint32(o)
	}
	return v, nil
}

// FuzzParseIPv4MatchesReference holds the parser to a subset of the
// retired one: every address it accepts, the reference accepts with
// the same value.
func FuzzParseIPv4MatchesReference(f *testing.F) {
	for _, s := range []string{
		"137.164.0.0", "0.0.0.0", "255.255.255.255", "10.1.0.7",
		"+1.2.3.4", "1. 2.3.4", " 1.2.3.4", "01.2.3.4", "1.2.3.4x", "1.2.3.4 ",
		"1.2.3", "1.2.3.4.5", "256.1.1.1", "-0.1.2.3", "::ffff:1.2.3.4", "1.2.3.4%eth0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseIPv4(s)
		if err != nil {
			return
		}
		want, rerr := refParseIPv4(s)
		if rerr != nil || got != want {
			t.Fatalf("ParseIPv4(%q) = %#x; reference = %#x, %v", s, got, want, rerr)
		}
	})
}

// TestParseIPv4RejectsLooseSpellings names the spellings the reference
// took and the parser no longer does.
func TestParseIPv4RejectsLooseSpellings(t *testing.T) {
	for _, s := range []string{"+1.2.3.4", "1. 2.3.4", " 1.2.3.4", "01.2.3.4", "1.2.3.4x", "1.2.3.4 "} {
		if _, err := refParseIPv4(s); err != nil {
			t.Errorf("reference rejects %q; the case is moot", s)
		}
		if _, err := ParseIPv4(s); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", s)
		}
	}
}
