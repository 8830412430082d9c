package netfail

// Chaos gate: netfail-serve must survive a SIGKILL at each of three
// fault-injection-chosen points mid-ingest. The killed daemon is
// restarted on the same state directory, resumes from its checkpoint,
// and must produce a final report byte-identical to an uninterrupted
// run over the same campaign. `make chaos` runs exactly this under
// the race detector.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"netfail/internal/faultinject"
	"netfail/internal/netsim"
)

// campaignRecords counts the records the replay will ingest: syslog
// lines plus captured LSPs — the space the kill point is drawn from.
func campaignRecords(t *testing.T, campaign string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(campaign, "syslog.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if sc.Text() != "" {
			lines++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(filepath.Join(campaign, "lsps.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	lsps, err := netsim.ReadLSPLog(lf)
	if err != nil {
		t.Fatal(err)
	}
	return lines + len(lsps)
}

func TestChaosKillRestartReportIsByteIdentical(t *testing.T) {
	bin := buildCommands(t)
	campaign := filepath.Join(t.TempDir(), "campaign")
	out, err := exec.Command(filepath.Join(bin, "netfail-sim"),
		"-seed", "11", "-days", "14", "-core", "6", "-cpe", "12",
		"-out", campaign).CombinedOutput()
	if err != nil {
		t.Fatalf("netfail-sim: %v\n%s", err, out)
	}

	total := campaignRecords(t, campaign)
	if total < 3 {
		t.Fatalf("campaign too small for a chaos run: %d records", total)
	}

	// Reference: uninterrupted run.
	refReport := filepath.Join(t.TempDir(), "ref.txt")
	out, err = exec.Command(filepath.Join(bin, "netfail-serve"),
		"-data", campaign, "-state", filepath.Join(t.TempDir(), "state"),
		"-snapshot-every", "97", "-report", refReport).CombinedOutput()
	if err != nil {
		t.Fatalf("uninterrupted serve: %v\n%s", err, out)
	}
	ref, err := os.ReadFile(refReport)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference report is empty")
	}
	// Lenient is the daemon's default and has no flag: -strict is the
	// one spelling, so -lenient is the flag package's usage error.
	err = exec.Command(filepath.Join(bin, "netfail-serve"),
		"-data", campaign, "-state", filepath.Join(t.TempDir(), "state"), "-lenient").Run()
	var usage *exec.ExitError
	if !errors.As(err, &usage) || usage.ExitCode() != 2 {
		t.Errorf("netfail-serve -lenient: %v, want exit status 2", err)
	}

	// The kill points are seeded, interior, and replayable: rerunning
	// this test kills at the same records.
	for seed := int64(11); seed <= 13; seed++ {
		killAfter := faultinject.RuntimePlan{Seed: seed}.KillAfter(total)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("campaign has %d records; killing once %d are durable", total, killAfter)
			chaosRunMatches(t, bin, campaign, killAfter, ref)
		})
	}
}

// chaosRunMatches runs the daemon over campaign until it SIGKILLs
// itself once killAfter records are durable, restarts it on the same
// state directory, and compares the resumed run's report with ref.
func chaosRunMatches(t *testing.T, bin, campaign string, killAfter int, ref []byte) {
	// Chaos run: the daemon SIGKILLs itself mid-ingest...
	stateDir := filepath.Join(t.TempDir(), "state")
	killedReport := filepath.Join(t.TempDir(), "resumed.txt")
	cmd := exec.Command(filepath.Join(bin, "netfail-serve"),
		"-data", campaign, "-state", stateDir,
		"-snapshot-every", "97", "-chaos-kill-after", strconv.Itoa(killAfter))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("chaos run exited cleanly; the kill never fired\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("chaos run: %v\n%s", err, out)
	}
	if ws, ok := exitErr.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("chaos run died of %v, want SIGKILL\n%s", err, out)
	}

	// ...and the restart recovers the durable prefix and finishes.
	out, err = exec.Command(filepath.Join(bin, "netfail-serve"),
		"-data", campaign, "-state", stateDir,
		"-snapshot-every", "97", "-report", killedReport).CombinedOutput()
	if err != nil {
		t.Fatalf("resumed serve: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "recovered") {
		t.Fatalf("resumed run recovered nothing:\n%s", out)
	}
	resumed, err := os.ReadFile(killedReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, resumed) {
		t.Errorf("resumed report differs from uninterrupted run (%d vs %d bytes)", len(ref), len(resumed))
	}
}
