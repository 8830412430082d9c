package isis

import (
	"sort"
	"sync"
)

// Database is a level-2 link-state database: the per-router view of
// every LSP in the network, keyed by LSP ID and ordered by sequence
// number. It is safe for concurrent use.
type Database struct {
	mu   sync.RWMutex
	lsps map[LSPID]*LSP // guarded by mu
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{lsps: make(map[LSPID]*LSP)}
}

// Install stores the LSP if it is newer than the stored copy (higher
// sequence number, or equal sequence with zero lifetime superseding a
// live copy). It returns true if the database changed.
func (db *Database) Install(lsp *LSP) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if cur, ok := db.lsps[lsp.ID]; ok && !newer(lsp, cur) {
		return false
	}
	db.lsps[lsp.ID] = lsp
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
	return db.lsps[id]
}

// Len returns the number of stored LSPs.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.lsps)
}

// Snapshot returns the stored LSPs sorted by LSP ID.
func (db *Database) Snapshot() []*LSP {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*LSP, 0, len(db.lsps))
	for _, lsp := range db.lsps {
		out = append(out, lsp)
	}
	sort.Slice(out, func(i, j int) bool { return lessLSPID(out[i].ID, out[j].ID) })
	return out
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
