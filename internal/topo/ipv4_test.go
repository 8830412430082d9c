package topo

import "testing"

// FuzzParseIPv4MatchesReference holds the parser to the one spelling
// FormatIPv4 writes: every address it accepts formats back to the
// input. The fmt.Sscanf parser it was once checked against is retired:
// the mutation table's rows I1 and I2 (internal/lint/mutation_test.go)
// fail this round trip, and I1 also TestParseIPv4RejectsLooseSpellings.
func FuzzParseIPv4MatchesReference(f *testing.F) {
	for _, s := range []string{
		"137.164.0.0", "0.0.0.0", "255.255.255.255", "10.1.0.7",
		"+1.2.3.4", "1. 2.3.4", " 1.2.3.4", "01.2.3.4", "1.2.3.4x", "1.2.3.4 ",
		"1.2.3", "1.2.3.4.5", "256.1.1.1", "-0.1.2.3", "::ffff:1.2.3.4", "1.2.3.4%eth0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, err := ParseIPv4(s); err == nil && FormatIPv4(got) != s {
			t.Fatalf("ParseIPv4(%q) = %#x, which formats as %q", s, got, FormatIPv4(got))
		}
	})
}

// TestParseIPv4RejectsLooseSpellings names spellings the retired
// Sscanf parser took, and other addresses that are not one dotted
// quad, which the parser must reject.
func TestParseIPv4RejectsLooseSpellings(t *testing.T) {
	for _, s := range []string{
		"+1.2.3.4", "1. 2.3.4", " 1.2.3.4", "01.2.3.4", "1.2.3.4x", "1.2.3.4 ",
		"::ffff:1.2.3.4", "1.2.3.4%eth0", "1.2.3", "256.1.1.1",
	} {
		if _, err := ParseIPv4(s); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", s)
		}
	}
}
