package netfail

// Determinism contract of the parallel pipeline: every Parallelism
// setting must produce byte-identical reports. The shards merge in
// stable link-ID/chunk order and every sort downstream is stable, so
// worker count can change scheduling but never output.

import (
	"bytes"
	"context"
	"testing"
)

func TestParallelismIsByteIdentical(t *testing.T) {
	camp, err := Simulate(context.Background(), smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallelism int) []byte {
		t.Helper()
		study, err := Analyze(context.Background(), camp, WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := study.Report(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sequential := render(1)
	if len(sequential) == 0 {
		t.Fatal("empty report")
	}
	for _, p := range []int{0, 2, 8} {
		got := render(p)
		if !bytes.Equal(got, sequential) {
			t.Errorf("Parallelism %d report differs from sequential (%d vs %d bytes)",
				p, len(got), len(sequential))
		}
	}

	// Observability is purely observational: the same analysis with a
	// tracer, a metrics registry, and a progress stream attached must
	// stay byte-identical — at every Parallelism setting.
	for _, p := range []int{0, 1, 2, 8} {
		tracer := NewTracer()
		reg := NewMetrics()
		study, err := Analyze(context.Background(), camp,
			WithParallelism(p), WithTracer(tracer), WithMetrics(reg),
			WithProgress(func(ProgressEvent) {}))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := study.Report(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), sequential) {
			t.Errorf("Parallelism %d with observability attached differs from baseline report", p)
		}
		if len(tracer.Snapshot()) == 0 {
			t.Errorf("Parallelism %d: tracer recorded no spans", p)
		}
		if reg.Counter("syslog.messages").Value() == 0 {
			t.Errorf("Parallelism %d: syslog.messages counter not populated", p)
		}
	}
}

// TestParallelismKnobThreaded pins the knob's plumbing: the value
// handed to WithParallelism must be the one the analysis
// (and therefore Study.Report's fan-out) actually ran with.
func TestParallelismKnobThreaded(t *testing.T) {
	camp, err := Simulate(context.Background(), smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	study, err := Analyze(context.Background(), camp, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if study.Analysis.In.Parallelism != 3 {
		t.Errorf("Analysis.In.Parallelism = %d, want 3", study.Analysis.In.Parallelism)
	}
}
