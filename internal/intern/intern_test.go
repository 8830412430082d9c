package intern

import (
	"fmt"
	"testing"
)

func TestInternCanonical(t *testing.T) {
	var tab Table
	a := tab.Intern([]byte("riv-core-01"))
	b := tab.Intern([]byte("riv-core-01"))
	if a != "riv-core-01" || b != "riv-core-01" {
		t.Fatalf("Intern = %q, %q", a, b)
	}
	// Canonical: the two sightings share one backing string.
	if &a == &b {
		t.Fatal("comparing variables, not contents")
	}
	if got, want := tab.Len(), 1; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestInternZeroValueLookup(t *testing.T) {
	var tab Table
	if s, ok := tab.m["absent"]; ok {
		t.Fatalf("empty table holds %q", s)
	}
	tab.Intern([]byte("present"))
	if s, ok := tab.m["present"]; !ok || s != "present" {
		t.Fatalf("table holds %q, %v", s, ok)
	}
}

// TestInternGrowthAndPromotion drives the table through many
// insert/reread cycles and checks every symbol stays reachable as the
// map grows: rehashing must never drop or alias a symbol.
func TestInternGrowthAndPromotion(t *testing.T) {
	var tab Table
	const n = 2048
	syms := make([]string, n)
	for i := range syms {
		syms[i] = fmt.Sprintf("symbol-%04d", i)
	}
	for i, s := range syms {
		got := tab.Intern([]byte(s))
		if got != s {
			t.Fatalf("Intern(%q) = %q", s, got)
		}
		// Reread a few earlier symbols at every table size.
		for j := 0; j <= i; j += 97 {
			if got := tab.Intern([]byte(syms[j])); got != syms[j] {
				t.Fatalf("reread Intern(%q) = %q", syms[j], got)
			}
		}
	}
	if got := tab.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for _, s := range syms {
		if got, ok := tab.m[s]; !ok || got != s {
			t.Fatalf("table holds %q for %q, %v after growth", got, s, ok)
		}
	}
}

func TestInternLimit(t *testing.T) {
	tab := Table{Limit: 2}
	tab.Intern([]byte("a"))
	tab.Intern([]byte("b"))
	if got := tab.Intern([]byte("c")); got != "c" {
		t.Fatalf("Intern past limit = %q", got)
	}
	if got := tab.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (limit must hold)", got)
	}
	if _, ok := tab.m["c"]; ok {
		t.Fatal("over-limit symbol was retained")
	}
	// Symbols under the limit still intern normally.
	if got := tab.Intern([]byte("a")); got != "a" {
		t.Fatalf("Intern under limit = %q", got)
	}
}

// TestInternWarmAllocBudget pins the warm path at zero allocations per
// lookup: once a symbol is in the table, Intern must be a map probe,
// not a conversion.
func TestInternWarmAllocBudget(t *testing.T) {
	var tab Table
	line := []byte("TenGigE0/1/0/3")
	tab.Intern(line)
	avg := testing.AllocsPerRun(100, func() {
		if s := tab.Intern(line); s == "" {
			t.Fatal("empty")
		}
	})
	if avg != 0 {
		t.Errorf("warm Intern allocates %.1f times per lookup, budget is 0", avg)
	}
}
