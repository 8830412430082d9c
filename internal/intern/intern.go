// Package intern provides the append-only symbol table behind the
// zero-allocation hot paths: the []byte syslog tokenizer and the IS-IS
// decode both see the same small vocabulary — hostnames, interface
// names, message mnemonics, neighbor keys — millions of times per
// campaign, and converting each sighting to a fresh string is exactly
// the per-record garbage the allocation discipline (ROADMAP item 4)
// forbids. Interning turns the conversion into a map probe: the first
// sighting of a symbol pays one allocation, every later sighting
// returns the canonical string for free.
//
// The table is built for one write-rarely/read-constantly workload:
//
//   - Reads are lock-free. Lookups go to an immutable snapshot map
//     published through an atomic pointer; the m[string(b)] probe is
//     recognized by the compiler and does not allocate or copy.
//   - Writes are mutex-serialized into a dirty overlay map. A snapshot
//     miss falls through to the overlay under the lock; when the lock
//     path has been taken as many times as the overlay holds entries,
//     the overlay is promoted into a fresh snapshot (the sync.Map
//     heuristic), after which the steady state is lock-free again.
//
// Concurrent readers and writers are safe; the returned strings are
// canonical (pointer-equal for equal byte content) for the life of the
// table, which also makes them cheap map keys downstream.
package intern

import (
	"sync"
	"sync/atomic"
)

// Table is an append-only string intern table safe for concurrent use.
// The zero value is ready; Table must not be copied after first use.
type Table struct {
	// Limit optionally caps the symbol count. Once Len() reaches the
	// limit, unseen symbols are returned as ordinary fresh strings and
	// not retained, so a hostile or corrupted input stream (the
	// faultinject corpora, a real-world free-text field) degrades to
	// the pre-interning allocation rate instead of growing the table
	// without bound. Zero means unlimited. Set before first use.
	Limit int

	snap   atomic.Pointer[map[string]string]
	mu     sync.Mutex
	dirty  map[string]string // guarded by mu
	misses int               // guarded by mu
}

// load returns the current read snapshot (nil before first promotion —
// lookups on a nil map are legal and miss).
func (t *Table) load() map[string]string {
	if p := t.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// Intern returns the canonical string for b, adding it to the table on
// first sighting. The warm path — symbol present in the published
// snapshot — is lock-free and allocation-free.
func (t *Table) Intern(b []byte) string {
	if s, ok := t.load()[string(b)]; ok {
		return s
	}
	return t.internSlow(b)
}

// internSlow is the locked miss path: probe the dirty overlay, insert
// on first sighting, and promote the overlay into a new snapshot when
// the lock path has paid for itself.
func (t *Table) internSlow(b []byte) string {
	t.mu.Lock()
	if s, ok := t.dirty[string(b)]; ok {
		t.missLocked()
		t.mu.Unlock()
		return s
	}
	if t.Limit > 0 && t.lenLocked() >= t.Limit {
		t.mu.Unlock()
		return string(b)
	}
	s := string(b)
	if t.dirty == nil {
		t.dirty = make(map[string]string)
	}
	t.dirty[s] = s
	t.mu.Unlock()
	return s
}

// missLocked counts one locked lookup that found its symbol in the
// dirty overlay, and promotes the overlay once the lock path has been
// taken len(dirty) times — repeat traffic on unpromoted symbols is the
// signal that a new snapshot pays for itself. Insertions deliberately
// do not count: promoting on every insert would copy the snapshot
// per new symbol (quadratic startup) for no read-path benefit.
func (t *Table) missLocked() {
	t.misses++
	if t.misses < len(t.dirty) {
		return
	}
	snap := t.load()
	next := make(map[string]string, len(snap)+len(t.dirty))
	for k, v := range snap {
		next[k] = v
	}
	for k, v := range t.dirty {
		next[k] = v
	}
	t.snap.Store(&next)
	t.dirty = nil
	t.misses = 0
}

// lenLocked counts distinct symbols across snapshot and overlay.
func (t *Table) lenLocked() int {
	n := len(t.load())
	for k := range t.dirty {
		if _, ok := t.load()[k]; !ok {
			n++
		}
	}
	return n
}

// Len returns the number of interned symbols.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lenLocked()
}

// Lookup reports the canonical string for b without inserting.
func (t *Table) Lookup(b []byte) (string, bool) {
	if s, ok := t.load()[string(b)]; ok {
		return s, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.dirty[string(b)]
	return s, ok
}
