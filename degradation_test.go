package netfail

// End-to-end degradation: corrupt both capture streams at roughly 1%
// with deterministic fault injection, salvage what survives, and
// assert the paper's qualitative findings still hold. Real archives
// are never pristine — the analysis must degrade gracefully, and
// strict mode must localize the damage instead of tolerating it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netfail/internal/core"
	"netfail/internal/faultinject"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/syslog"
	"netfail/internal/tickets"
)

// corruptRoundTrip corrupts data with the plan and asserts the
// corruption is deterministic: the same plan must yield byte-identical
// output and an identical fault list.
func corruptRoundTrip(t *testing.T, name string, data []byte, plan faultinject.Plan) ([]byte, []faultinject.Fault) {
	t.Helper()
	dirty, faults := faultinject.Corrupt(data, plan)
	again, faults2 := faultinject.Corrupt(data, plan)
	if !bytes.Equal(dirty, again) {
		t.Fatalf("%s: same plan produced different corrupted captures", name)
	}
	if len(faults) != len(faults2) {
		t.Fatalf("%s: same plan produced different fault lists", name)
	}
	if len(faults) == 0 {
		t.Fatalf("%s: no faults injected at rate %v", name, plan.Rate)
	}
	return dirty, faults
}

func TestCorruptionSweep(t *testing.T) {
	cfg := smallConfig(7)
	cfg.End = cfg.Start.Add(120 * 24 * time.Hour)
	camp, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := MineConfigs(camp)
	if err != nil {
		t.Fatal(err)
	}

	// Syslog archive: serialize, corrupt ~1% of lines, salvage.
	var slogBuf bytes.Buffer
	if err := syslog.WriteLog(&slogBuf, camp.Syslog); err != nil {
		t.Fatal(err)
	}
	dirtySyslog, _ := corruptRoundTrip(t, "syslog", slogBuf.Bytes(), faultinject.Plan{Seed: 101, Rate: 0.01})
	msgs, bad, err := syslog.ReadLog(bytes.NewReader(dirtySyslog), cfg.Start)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Error("syslog: corruption injected but the reader counts no bad lines")
	}
	t.Logf("syslog: %d bad lines of %d", bad, bad+len(msgs))

	// LSP capture: corrupt, salvage, and check strict mode fails on
	// exactly the line the salvage report flags first.
	var lspBuf bytes.Buffer
	if err := netsim.WriteLSPLog(&lspBuf, camp.LSPLog); err != nil {
		t.Fatal(err)
	}
	dirtyLSP, _ := corruptRoundTrip(t, "lsps", lspBuf.Bytes(), faultinject.Plan{Seed: 102, Rate: 0.01})
	lsps, lrep, err := netsim.ReadLSPLogLenient(bytes.NewReader(dirtyLSP))
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Skipped == 0 {
		t.Error("lsps: corruption injected but salvage reports no skips")
	}
	if _, serr := netsim.ReadLSPLog(bytes.NewReader(dirtyLSP)); serr == nil {
		t.Error("lsps: strict reader accepted a corrupted capture")
	} else if want := fmt.Sprintf("line %d", lrep.FirstBad); !strings.Contains(serr.Error(), want) {
		t.Errorf("lsps: strict error %q does not name %s", serr, want)
	}
	t.Logf("lsps salvage: %s", lrep)

	// Replay the salvaged capture. Bit flips can leave hex-valid but
	// undecodable payloads; the listener's decode accounting absorbs
	// them.
	l := listener.New(mined.Network)
	for _, c := range lsps {
		_ = l.Process(c.Time, c.Data) // decode failures tolerated below
	}
	res := l.Results()
	if res.DecodeErrors > 0 {
		t.Logf("lsps: %d salvaged payloads failed LSP decode", res.DecodeErrors)
	}

	tix := tickets.NewIndex(tickets.Generate(cfg.Seed+1, camp.GroundTruthFailures(), tickets.DefaultParams()))

	// The directional findings must survive ~1% loss on both streams.
	analysis, err := core.Analyze(context.Background(), core.Input{
		Network:         mined.Network,
		Customers:       camp.Network.Customers,
		Syslog:          msgs,
		ISTransitions:   res.ISTransitions,
		IPTransitions:   res.IPTransitions,
		Start:           cfg.Start,
		End:             cfg.End,
		ListenerOffline: camp.ListenerOffline,
		Tickets:         tix,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertQualitativeFindings(t, "corruption-sweep", &Study{Analysis: analysis})
}

// corruptFile rewrites path with a deterministically corrupted copy of
// its contents.
func corruptFile(t *testing.T, path string, plan faultinject.Plan) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dirty, faults := faultinject.Corrupt(data, plan)
	if len(faults) == 0 {
		t.Fatalf("%s: no faults injected", path)
	}
	if err := os.WriteFile(path, dirty, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCLICorruptedCampaign drives netfail-analyze over an on-disk
// campaign with bit-rotted captures: strict mode must refuse with a
// line-accurate error and exit 1; -lenient must salvage, print the
// per-file reports on stderr, and exit 3 so scripts can tell a
// salvaged analysis from a clean one.
func TestCLICorruptedCampaign(t *testing.T) {
	bin := buildCommands(t)
	campaign := filepath.Join(t.TempDir(), "campaign")
	out, err := exec.Command(filepath.Join(bin, "netfail-sim"),
		"-seed", "5", "-days", "30", "-core", "8", "-cpe", "16",
		"-out", campaign).CombinedOutput()
	if err != nil {
		t.Fatalf("netfail-sim: %v\n%s", err, out)
	}
	corruptFile(t, filepath.Join(campaign, "lsps.log"), faultinject.Plan{Seed: 201, Rate: 0.01})
	corruptFile(t, filepath.Join(campaign, "syslog.log"), faultinject.Plan{Seed: 202, Rate: 0.01})

	// Strict: the corrupted LSP capture aborts the analysis.
	var stdout, stderr bytes.Buffer
	strict := exec.Command(filepath.Join(bin, "netfail-analyze"), "-data", campaign, "-table", "4")
	strict.Stdout, strict.Stderr = &stdout, &stderr
	err = strict.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("strict analyze on corrupted campaign: err=%v, want exit 1\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "line ") {
		t.Errorf("strict error is not line-accurate:\n%s", stderr.String())
	}

	// Lenient: salvages, reports, exits 3.
	stdout.Reset()
	stderr.Reset()
	lenient := exec.Command(filepath.Join(bin, "netfail-analyze"), "-data", campaign, "-table", "4", "-lenient")
	lenient.Stdout, lenient.Stderr = &stdout, &stderr
	err = lenient.Run()
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 3 {
		t.Fatalf("lenient analyze: err=%v, want exit 3\n%s", err, stderr.String())
	}
	for _, want := range []string{"salvage lsps.log", "salvage syslog.log", "skipped"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("lenient stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if !strings.Contains(stdout.String(), "Failure Count") {
		t.Errorf("lenient analysis produced no table:\n%s", stdout.String())
	}
}
