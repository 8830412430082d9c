package isis

import (
	"testing"
	"time"

	"netfail/internal/topo"
)

func lspWithSeq(idx int, seq uint32) *LSP {
	return NewLSP(topo.SystemIDFromIndex(idx), seq, "r", nil, nil)
}

func TestDatabaseInstallOrdering(t *testing.T) {
	db := NewDatabase()
	now := time.Unix(0, 0)
	if !db.Install(lspWithSeq(1, 5), now) {
		t.Error("first install rejected")
	}
	if db.Install(lspWithSeq(1, 4), now) {
		t.Error("older sequence accepted")
	}
	if db.Install(lspWithSeq(1, 5), now) {
		t.Error("same sequence accepted")
	}
	if !db.Install(lspWithSeq(1, 6), now) {
		t.Error("newer sequence rejected")
	}
	if got := db.Get(LSPID{System: topo.SystemIDFromIndex(1)}); got == nil || got.Sequence != 6 {
		t.Errorf("stored seq = %+v", got)
	}
}

func TestDatabasePurgeWins(t *testing.T) {
	db := NewDatabase()
	now := time.Unix(0, 0)
	db.Install(lspWithSeq(1, 5), now)
	purge := lspWithSeq(1, 5)
	purge.Lifetime = 0
	if !db.Install(purge, now) {
		t.Error("zero-lifetime copy at same sequence should supersede")
	}
}

func TestDatabaseSnapshotSorted(t *testing.T) {
	db := NewDatabase()
	now := time.Unix(0, 0)
	for _, idx := range []int{5, 1, 3} {
		db.Install(lspWithSeq(idx, 1), now)
	}
	snap := db.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if !lessLSPID(snap[i-1].ID, snap[i].ID) {
			t.Error("snapshot not sorted")
		}
	}
}

func TestDatabaseEntries(t *testing.T) {
	db := NewDatabase()
	now := time.Unix(0, 0)
	db.Install(lspWithSeq(1, 9), now)
	entries := db.Entries()
	if len(entries) != 1 || entries[0].Sequence != 9 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestDatabaseConcurrentAccess(t *testing.T) {
	db := NewDatabase()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			db.Install(lspWithSeq(i%10, uint32(i)), time.Unix(int64(i), 0))
		}
	}()
	for i := 0; i < 1000; i++ {
		db.Get(LSPID{System: topo.SystemIDFromIndex(i % 10)})
		db.Len()
	}
	<-done
}
