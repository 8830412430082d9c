// Package intern provides the append-only symbol table behind the
// zero-allocation hot paths. The syslog tokenizer and the IS-IS decode
// see the same small vocabulary — hostnames, mnemonics, message texts —
// millions of times per campaign; interning turns each string
// conversion into a map probe (m[string(b)] neither allocates nor
// copies), so only a symbol's first sighting allocates.
//
// A Table belongs to one decoder — a syslog.Tokenizer, an isis.LSP
// scratch — and is not safe for concurrent use. The returned strings
// are canonical for the life of the table, which makes them cheap map
// keys downstream.
package intern

// Table is a bounded, append-only string intern table. The zero value
// is ready and unlimited.
type Table struct {
	// Limit optionally caps the symbol count. Past it, unseen symbols
	// are returned as fresh strings and not retained, so hostile or
	// corrupted input degrades to one allocation per symbol instead of
	// growing the table without bound. Zero means unlimited.
	Limit int

	m map[string]string
}

// Intern returns the canonical string for b, adding it on first
// sighting. A symbol already present costs one probe and no allocation.
func (t *Table) Intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.Limit > 0 && len(t.m) >= t.Limit {
		return s
	}
	if t.m == nil {
		t.m = make(map[string]string)
	}
	t.m[s] = s
	return s
}

// Len returns the number of interned symbols.
func (t *Table) Len() int { return len(t.m) }
