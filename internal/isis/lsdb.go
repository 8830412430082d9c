package isis

import (
	"sort"
	"sync"
	"time"
)

// Database is a level-2 link-state database: the per-router view of
// every LSP in the network, keyed by LSP ID and ordered by sequence
// number. It is safe for concurrent use.
type Database struct {
	mu   sync.RWMutex
	lsps map[LSPID]storedLSP // guarded by mu
}

type storedLSP struct {
	lsp      *LSP
	received time.Time
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{lsps: make(map[LSPID]storedLSP)}
}

// Install stores the LSP if it is newer than the stored copy (higher
// sequence number, or equal sequence with zero lifetime superseding a
// live copy). It returns true if the database changed. now stamps the
// arrival.
func (db *Database) Install(lsp *LSP, now time.Time) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur, ok := db.lsps[lsp.ID]
	if ok && !newer(lsp, cur.lsp) {
		return false
	}
	db.lsps[lsp.ID] = storedLSP{lsp: lsp, received: now}
	return true
}

// newer reports whether candidate should replace stored per ISO 10589
// §7.3.16.
func newer(candidate, stored *LSP) bool {
	if candidate.Sequence != stored.Sequence {
		return candidate.Sequence > stored.Sequence
	}
	// Same sequence: a zero-lifetime (purged) copy wins.
	return candidate.Lifetime == 0 && stored.Lifetime != 0
}

// Get returns the stored LSP for the ID, or nil: the database's own
// copy, read-only. An owner that recycles displaced LSPs (the listener)
// overwrites it once a newer LSP for the ID is installed.
func (db *Database) Get(id LSPID) *LSP {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if s, ok := db.lsps[id]; ok {
		return s.lsp
	}
	return nil
}

// Len returns the number of stored LSPs.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.lsps)
}

// Snapshot returns the stored LSPs sorted by LSP ID, as a CSNP would
// enumerate them.
func (db *Database) Snapshot() []*LSP {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*LSP, 0, len(db.lsps))
	for _, s := range db.lsps {
		out = append(out, s.lsp)
	}
	sort.Slice(out, func(i, j int) bool { return lessLSPID(out[i].ID, out[j].ID) })
	return out
}

// Entries returns CSNP-style digest entries for the whole database.
func (db *Database) Entries() []LSPEntry {
	lsps := db.Snapshot()
	entries := make([]LSPEntry, len(lsps))
	for i, l := range lsps {
		entries[i] = LSPEntry{Lifetime: l.Lifetime, ID: l.ID, Sequence: l.Sequence, Checksum: l.Checksum}
	}
	return entries
}

func lessLSPID(a, b LSPID) bool {
	if a.System != b.System {
		return a.System.Less(b.System)
	}
	if a.Pseudonode != b.Pseudonode {
		return a.Pseudonode < b.Pseudonode
	}
	return a.Fragment < b.Fragment
}
