package netfail

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netfail/internal/capture"
)

// longConfig is a small network observed for 240 days: long enough
// that a year-less RFC 3164 stamp resolved against the campaign start
// instead of a rolling reference lands in the wrong year.
func longConfig(seed int64) SimulationConfig {
	cfg := smallConfig(seed)
	cfg.End = cfg.Start.Add(240 * 24 * time.Hour)
	return cfg
}

// TestSpillReportByteIdenticalToInRAM is the tentpole pin: a
// single-shard spill capture of a campaign, analyzed back off disk,
// must produce a report byte-identical to the in-RAM pipeline — at
// every Parallelism setting on both sides, for a campaign of weeks and
// for one of more than six months.
func TestSpillReportByteIdenticalToInRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	for _, cfg := range []SimulationConfig{smallConfig(7), longConfig(7)} {
		t.Run(fmt.Sprintf("%.0f days", cfg.End.Sub(cfg.Start).Hours()/24), func(t *testing.T) {
			spillMatchesInRAM(t, cfg)
		})
	}
}

func spillMatchesInRAM(t *testing.T, cfg SimulationConfig) {
	ctx := context.Background()

	ram, err := Run(ctx, cfg, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ram.Report(&want); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{}, dir); err != nil {
		t.Fatal(err)
	}
	if !IsCaptureCampaign(dir) {
		t.Fatal("IsCaptureCampaign = false for a spilled campaign dir")
	}

	for _, par := range []int{1, 0, 2, 8} {
		study, reports, err := AnalyzeCaptureDir(ctx, dir, false, WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for _, r := range reports {
			if !r.Report.Clean() {
				t.Errorf("parallelism %d: unexpected salvage on clean capture: %s: %s", par, r.Name, r.Report)
			}
		}
		var got bytes.Buffer
		if err := study.Report(&got); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if got.String() != want.String() {
			t.Fatalf("parallelism %d: spill report differs from in-RAM report\n%s",
				par, firstDiff(want.String(), got.String()))
		}
	}
}

// TestSpillCampaignMatchesInRAM pins the simulation side: the spilled
// campaign's ground truth and counters equal the in-RAM run's (the
// sink is the only difference between the two code paths).
func TestSpillCampaignMatchesInRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := smallConfig(3)
	ram, err := Simulate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spilled, err := SimulateToCapture(ctx, cfg, FabricSpec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Counts != ram.Counts {
		t.Errorf("counts: spill %+v != ram %+v", spilled.Counts, ram.Counts)
	}
	if len(spilled.GroundTruth) != len(ram.GroundTruth) {
		t.Fatalf("ground truth: spill %d != ram %d", len(spilled.GroundTruth), len(ram.GroundTruth))
	}
	for i := range ram.GroundTruth {
		if spilled.GroundTruth[i] != ram.GroundTruth[i] {
			t.Fatalf("ground truth[%d]: spill %+v != ram %+v", i, spilled.GroundTruth[i], ram.GroundTruth[i])
		}
	}
	cm, err := capture.ReadManifestDir(filepath.Join(dir, CaptureDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(cm.Shards))
	}
	sy, _ := cm.Records()
	if sy != int64(len(ram.Syslog)) {
		t.Errorf("captured syslog records = %d, want %d", sy, len(ram.Syslog))
	}
}

// TestShardedSpillDeterministic pins the multi-domain path: the
// sharded capture and its analysis are byte-deterministic across
// simulation worker counts and analysis Parallelism settings.
func TestShardedSpillDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := smallConfig(5)
	fabric := FabricSpec{Domains: 2, Spines: 3, Leaves: 5, Metric: 10}

	report := func(par int) (string, string) {
		t.Helper()
		dir := t.TempDir()
		camp, err := SimulateToCapture(ctx, cfg, fabric, dir, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if camp.Counts.GroundTruthFailures != len(camp.GroundTruth) {
			t.Fatalf("inconsistent ground-truth count")
		}
		study, _, err := AnalyzeCaptureDir(ctx, dir, false, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := study.Report(&buf); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(dir, CaptureDirName, "shard-0001", capture.SyslogSegment))
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), string(seg)
	}

	wantRep, wantSeg := report(1)
	for _, par := range []int{0, 3} {
		gotRep, gotSeg := report(par)
		if gotSeg != wantSeg {
			t.Fatalf("parallelism %d: shard-0001 segment bytes differ from sequential run", par)
		}
		if gotRep != wantRep {
			t.Fatalf("parallelism %d: sharded report differs from sequential run\n%s",
				par, firstDiff(wantRep, gotRep))
		}
	}
}

// TestShardedBackboneShardMatchesSingleShard pins the seeding
// contract: domain 0 of a sharded capture is byte-identical to the
// single-shard capture of the same config.
func TestShardedBackboneShardMatchesSingleShard(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := smallConfig(11)
	single := t.TempDir()
	sharded := t.TempDir()
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{}, single); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{Domains: 1, Spines: 2, Leaves: 3, Metric: 10}, sharded); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{capture.SyslogSegment, capture.LSPSegment} {
		a, err := os.ReadFile(filepath.Join(single, CaptureDirName, "shard-0000", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(sharded, CaptureDirName, "shard-0000", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: backbone shard differs between single and sharded capture", name)
		}
	}
}

// firstDiff locates the first differing line of two reports, for
// failure messages that point at the divergence instead of dumping
// both documents.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return "line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	if len(wl) != len(gl) {
		return "line counts differ: want " + itoa(len(wl)) + ", got " + itoa(len(gl))
	}
	return "documents identical?"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
