package isis

import (
	"testing"

	"netfail/internal/topo"
)

// spfTestDB builds a database for the topology
//
//	s1 --10-- s2 --10-- s3
//	  \------40--------/
//
// where s1..s3 are systems 1..3.
func spfTestDB(t *testing.T, withDirectLink bool) *Database {
	t.Helper()
	db := NewDatabase()
	sys := func(i int) topo.SystemID { return topo.SystemIDFromIndex(i) }
	install := func(owner int, nbrs ...ISNeighbor) {
		lsp := NewLSP(sys(owner), 1, "r", nbrs, nil)
		if !db.Install(lsp) {
			t.Fatal("install failed")
		}
	}
	n1 := []ISNeighbor{{System: sys(2), Metric: 10}}
	n2 := []ISNeighbor{{System: sys(1), Metric: 10}, {System: sys(3), Metric: 10}}
	n3 := []ISNeighbor{{System: sys(2), Metric: 10}}
	if withDirectLink {
		n1 = append(n1, ISNeighbor{System: sys(3), Metric: 40})
		n3 = append(n3, ISNeighbor{System: sys(1), Metric: 40})
	}
	install(1, n1...)
	install(2, n2...)
	install(3, n3...)
	return db
}

func TestSPFShortestPath(t *testing.T) {
	db := spfTestDB(t, true)
	res := RunSPF(db, topo.SystemIDFromIndex(1))
	r3, ok := res.Routes[topo.SystemIDFromIndex(3)]
	if !ok {
		t.Fatal("s3 unreachable")
	}
	// Via s2 (10+10=20), not the direct 40-cost link.
	if r3.Metric != 20 || r3.Hops != 2 {
		t.Errorf("route to s3 = %+v, want metric 20 hops 2", r3)
	}
	if r3.NextHop != topo.SystemIDFromIndex(2) {
		t.Errorf("next hop = %v, want s2", r3.NextHop)
	}
	r2 := res.Routes[topo.SystemIDFromIndex(2)]
	if r2.Metric != 10 || r2.NextHop != topo.SystemIDFromIndex(2) {
		t.Errorf("route to s2 = %+v", r2)
	}
}

func TestSPFTwoWayCheck(t *testing.T) {
	// s3 advertises s1 but s1 does not advertise s3 (one-way): the
	// direct edge must not be used.
	db := NewDatabase()
	sys := func(i int) topo.SystemID { return topo.SystemIDFromIndex(i) }
	db.Install(NewLSP(sys(1), 1, "r1", []ISNeighbor{{System: sys(2), Metric: 10}}, nil))
	db.Install(NewLSP(sys(2), 1, "r2", []ISNeighbor{{System: sys(1), Metric: 10}}, nil))
	db.Install(NewLSP(sys(3), 1, "r3", []ISNeighbor{{System: sys(1), Metric: 5}}, nil))
	res := RunSPF(db, sys(1))
	if res.Reachable(sys(3)) {
		t.Error("one-way adjacency used by SPF")
	}
	if !res.Reachable(sys(2)) {
		t.Error("two-way adjacency not used")
	}
}

func TestSPFPartition(t *testing.T) {
	db := spfTestDB(t, false)
	// Withdraw the s2<->s3 adjacency from s2's side: s3 unreachable.
	sys := func(i int) topo.SystemID { return topo.SystemIDFromIndex(i) }
	lsp := NewLSP(sys(2), 2, "r", []ISNeighbor{{System: sys(1), Metric: 10}}, nil)
	db.Install(lsp)
	res := RunSPF(db, sys(1))
	if res.Reachable(sys(3)) {
		t.Error("s3 should be unreachable after withdrawal")
	}
}

func TestSPFUnknownSource(t *testing.T) {
	db := spfTestDB(t, false)
	res := RunSPF(db, topo.SystemIDFromIndex(99))
	if len(res.Routes) != 0 {
		t.Errorf("routes from unknown source: %+v", res.Routes)
	}
}

func TestSPFSortedStable(t *testing.T) {
	db := spfTestDB(t, true)
	res := RunSPF(db, topo.SystemIDFromIndex(1))
	routes := res.Sorted()
	for i := 1; i < len(routes); i++ {
		if !routes[i-1].Dest.Less(routes[i].Dest) {
			t.Error("routes not sorted")
		}
	}
}

func TestSPFParallelLinksUseBestMetric(t *testing.T) {
	db := NewDatabase()
	sys := func(i int) topo.SystemID { return topo.SystemIDFromIndex(i) }
	// Two parallel adjacencies with metrics 30 and 10.
	nbrs12 := []ISNeighbor{{System: sys(2), Metric: 30}, {System: sys(2), Metric: 10}}
	nbrs21 := []ISNeighbor{{System: sys(1), Metric: 30}, {System: sys(1), Metric: 10}}
	db.Install(NewLSP(sys(1), 1, "r1", nbrs12, nil))
	db.Install(NewLSP(sys(2), 1, "r2", nbrs21, nil))
	res := RunSPF(db, sys(1))
	if got := res.Routes[sys(2)].Metric; got != 10 {
		t.Errorf("metric = %d, want 10 (best of parallels)", got)
	}
}

// TestSPFEqualCostDeterministic: on a diamond with two equal-metric
// paths s1-s2-s4 and s1-s3-s4, the route to s4 goes via the lower
// system ID on every run, however the maps behind the database and the
// edge lists happen to iterate.
func TestSPFEqualCostDeterministic(t *testing.T) {
	sys := func(i int) topo.SystemID { return topo.SystemIDFromIndex(i) }
	for run := 0; run < 200; run++ {
		db := NewDatabase()
		for owner, nbrs := range map[int][]int{1: {2, 3}, 2: {1, 4}, 3: {1, 4}, 4: {2, 3}} {
			var ns []ISNeighbor
			for _, n := range nbrs {
				ns = append(ns, ISNeighbor{System: sys(n), Metric: 10})
			}
			if !db.Install(NewLSP(sys(owner), 1, "r", ns, nil)) {
				t.Fatal("install failed")
			}
		}
		r4 := RunSPF(db, sys(1)).Routes[sys(4)]
		if want := (Route{Dest: sys(4), Metric: 20, NextHop: sys(2), Hops: 2}); r4 != want {
			t.Fatalf("run %d: route to s4 = %+v, want %+v", run, r4, want)
		}
	}
}

func TestSPFUnionsFragments(t *testing.T) {
	db := NewDatabase()
	sys := func(i int) topo.SystemID { return topo.SystemIDFromIndex(i) }
	// System 1's adjacency to 2 lives in fragment 0, to 3 in
	// fragment 1.
	f0 := NewLSP(sys(1), 1, "r1", []ISNeighbor{{System: sys(2), Metric: 10}}, nil)
	f1 := NewLSP(sys(1), 1, "r1", []ISNeighbor{{System: sys(3), Metric: 10}}, nil)
	f1.ID.Fragment = 1
	db.Install(f0)
	db.Install(f1)
	db.Install(NewLSP(sys(2), 1, "r2", []ISNeighbor{{System: sys(1), Metric: 10}}, nil))
	db.Install(NewLSP(sys(3), 1, "r3", []ISNeighbor{{System: sys(1), Metric: 10}}, nil))

	res := RunSPF(db, sys(1))
	if !res.Reachable(sys(2)) || !res.Reachable(sys(3)) {
		t.Errorf("fragmented adjacencies not unioned: %+v", res.Routes)
	}
}
