package netsim

import (
	"context"
	"testing"
	"time"

	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// inbandConfig builds a fragile chain-heavy topology where isolations
// are common, with and without the in-band transport model.
func inbandConfig(seed int64, inband bool) Config {
	return Config{
		Seed: seed,
		Spec: topo.Spec{
			Seed: seed, CoreRouters: 8, CPERouters: 24, CoreChords: 1,
			DualHomedCPE: 1, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 1,
			Customers: 20, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
		InBandSyslog:    inband,
	}
}

func TestInBandSyslogLosesIsolatedRoutersMessages(t *testing.T) {
	without, err := Run(context.Background(), inbandConfig(3, false))
	if err != nil {
		t.Fatal(err)
	}
	with, err := Run(context.Background(), inbandConfig(3, true))
	if err != nil {
		t.Fatal(err)
	}
	// Same workload (same seed), same emissions; the in-band model
	// can only lose more.
	if with.Counts.SyslogSent != without.Counts.SyslogSent {
		t.Fatalf("sent differ: %d vs %d (workload must be identical)",
			with.Counts.SyslogSent, without.Counts.SyslogSent)
	}
	if with.Counts.SyslogReceived >= without.Counts.SyslogReceived {
		t.Errorf("in-band model did not lose messages: %d >= %d",
			with.Counts.SyslogReceived, without.Counts.SyslogReceived)
	}
	t.Logf("received: out-of-band %d, in-band %d (lost %d to partitions)",
		without.Counts.SyslogReceived, with.Counts.SyslogReceived,
		without.Counts.SyslogReceived-with.Counts.SyslogReceived)
}

func TestInBandSyslogBiasesAgainstCPEDowns(t *testing.T) {
	with, err := Run(context.Background(), inbandConfig(4, true))
	if err != nil {
		t.Fatal(err)
	}
	// Down messages from CPE routers (the side that gets cut off)
	// should be rarer than their Up counterparts, which are sent
	// after connectivity returns.
	var cpeDown, cpeUp int
	for _, m := range with.Syslog {
		ev := m.Link
		if ev.Type != syslog.EventISISAdj {
			continue
		}
		r, ok := with.Network.Routers[m.Hostname]
		if !ok || r.Class != topo.CPE {
			continue
		}
		if ev.Up {
			cpeUp++
		} else {
			cpeDown++
		}
	}
	if cpeDown == 0 || cpeUp == 0 {
		t.Fatal("no CPE adjacency messages")
	}
	t.Logf("CPE adjacency messages: %d down, %d up", cpeDown, cpeUp)
	if cpeDown >= cpeUp {
		t.Errorf("in-band loss should suppress CPE Down messages: down=%d up=%d", cpeDown, cpeUp)
	}
}

func TestInBandDeterministic(t *testing.T) {
	a, err := Run(context.Background(), inbandConfig(5, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), inbandConfig(5, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("nondeterministic counts: %+v vs %+v", a.Counts, b.Counts)
	}
}
