package report

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/topo"
)

// smallAnalysis analyzes a six-week campaign on a thirty-router
// network with customers: every section of the report has rows.
func smallAnalysis(t *testing.T) *core.Analysis {
	t.Helper()
	camp, err := netsim.Run(context.Background(), netsim.Config{
		Seed: 3,
		Spec: topo.Spec{
			Seed: 3, CoreRouters: 10, CPERouters: 20, CoreChords: 2, DualHomedCPE: 4,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2011, 2, 15, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	l := listener.New(camp.Network)
	for _, c := range camp.LSPLog {
		if err := l.Process(c.Time, c.Data); err != nil {
			t.Fatal(err)
		}
	}
	res := l.Results()
	a, err := core.Analyze(context.Background(), core.Input{
		Network:       camp.Network,
		Customers:     camp.Network.Customers,
		Syslog:        camp.Syslog,
		ISTransitions: res.ISTransitions,
		IPTransitions: res.IPTransitions,
		Start:         camp.Config.Start,
		End:           camp.Config.End,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFullReportSameBytesAtEveryParallelism: FullReport over one
// Analysis gives the same bytes on a pool and on the calling goroutine,
// the two running at once, and Write over Tables gives them too. Under
// -race this is the check that the sections only read the views they
// share.
func TestFullReportSameBytesAtEveryParallelism(t *testing.T) {
	a := smallAnalysis(t)
	var out [2]bytes.Buffer
	var errs [2]error
	var wg sync.WaitGroup
	for i, parallelism := range []int{0, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = FullReport(context.Background(), &out[i], a, 3, 4, parallelism)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if out[0].Len() == 0 || !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("Parallelism 0 and 1 disagree (%d vs %d bytes)", out[0].Len(), out[1].Len())
	}
	tables := a.Tables(3, 4)
	if tables.Table7.ISISEvents == 0 || len(tables.Figure1.FailureDuration[0].X) == 0 {
		t.Fatalf("fixture too tame: Table 7 %+v, %d Figure 1a points", tables.Table7, len(tables.Figure1.FailureDuration[0].X))
	}
	var written bytes.Buffer
	if err := Write(&written, &tables); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written.Bytes(), out[1].Bytes()) {
		t.Error("Write over Analysis.Tables differs from FullReport")
	}
}
