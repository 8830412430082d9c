package isis

import (
	"testing"

	"netfail/internal/topo"
)

func lspWithSeq(idx int, seq uint32) *LSP {
	return NewLSP(topo.SystemIDFromIndex(idx), seq, "r", nil, nil)
}

func TestDatabaseInstallOrdering(t *testing.T) {
	db := NewDatabase()
	if !db.Install(lspWithSeq(1, 5)) {
		t.Error("first install rejected")
	}
	if db.Install(lspWithSeq(1, 4)) {
		t.Error("older sequence accepted")
	}
	if db.Install(lspWithSeq(1, 5)) {
		t.Error("same sequence accepted")
	}
	if !db.Install(lspWithSeq(1, 6)) {
		t.Error("newer sequence rejected")
	}
	if got := db.Get(LSPID{System: topo.SystemIDFromIndex(1)}); got == nil || got.Sequence != 6 {
		t.Errorf("stored seq = %+v", got)
	}
}

func TestDatabasePurgeWins(t *testing.T) {
	db := NewDatabase()
	db.Install(lspWithSeq(1, 5))
	purge := lspWithSeq(1, 5)
	purge.Lifetime = 0
	if !db.Install(purge) {
		t.Error("zero-lifetime copy at same sequence should supersede")
	}
}

func TestDatabaseSnapshotSorted(t *testing.T) {
	db := NewDatabase()
	for _, idx := range []int{5, 1, 3} {
		db.Install(lspWithSeq(idx, 1))
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

func TestDatabaseConcurrentAccess(t *testing.T) {
	db := NewDatabase()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			db.Install(lspWithSeq(i%10, uint32(i)))
		}
	}()
	for i := 0; i < 1000; i++ {
		db.Get(LSPID{System: topo.SystemIDFromIndex(i % 10)})
		db.Len()
	}
	<-done
}
