package netfail

// CLI integration: build the three commands and drive the full
// sim → analyze → listener-replay flow through their real flag
// surfaces, the way a user would.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netfail/internal/store"
)

// buildCommands compiles the binaries once into a shared temp dir.
func buildCommands(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration")
	}
	dir := t.TempDir()
	for _, name := range []string{"netfail-sim", "netfail-analyze", "netfail-listener"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return dir
}

func TestCLIEndToEnd(t *testing.T) {
	bin := buildCommands(t)
	campaign := filepath.Join(t.TempDir(), "campaign")

	// Simulate a small short campaign.
	out, err := exec.Command(filepath.Join(bin, "netfail-sim"),
		"-seed", "5", "-days", "30", "-core", "8", "-cpe", "16",
		"-out", campaign, "-truth").CombinedOutput()
	if err != nil {
		t.Fatalf("netfail-sim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "campaign written") {
		t.Fatalf("unexpected sim output:\n%s", out)
	}
	for _, f := range []string{"syslog.log", "lsps.log", "manifest.json", "tickets.json", "customers.json", "truth.log"} {
		if _, err := os.Stat(filepath.Join(campaign, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}

	// Analyze: single table, full report, markdown, SVG.
	out, err = exec.Command(filepath.Join(bin, "netfail-analyze"),
		"-data", campaign, "-table", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("netfail-analyze -table 4: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Failure Count") {
		t.Errorf("table 4 output:\n%s", out)
	}

	svgDir := filepath.Join(t.TempDir(), "figs")
	out, err = exec.Command(filepath.Join(bin, "netfail-analyze"),
		"-data", campaign, "-markdown", "-svg", svgDir).CombinedOutput()
	if err != nil {
		t.Fatalf("netfail-analyze -markdown: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "# Reproduction report") {
		t.Errorf("markdown output:\n%s", out)
	}
	for _, f := range []string{"figure1a.svg", "figure1b.svg", "figure1c.svg", "knee.svg"} {
		if _, err := os.Stat(filepath.Join(svgDir, f)); err != nil {
			t.Errorf("missing SVG %s", f)
		}
	}

	// -store on the flat directory: the driver writes the indexed
	// store whichever way the campaign is carried.
	storeDir := filepath.Join(t.TempDir(), "store")
	out, err = exec.Command(filepath.Join(bin, "netfail-analyze"),
		"-data", campaign, "-table", "4", "-store", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("netfail-analyze -store on a flat campaign: %v\n%s", err, out)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatalf("store written from a flat campaign: %v", err)
	}
	if man := st.Manifest(); man.Seed != 5 || len(man.Messages) == 0 || man.Failures.Records == 0 {
		t.Errorf("store manifest from a flat campaign: seed %d, %d message segments, %d failures",
			man.Seed, len(man.Messages), man.Failures.Records)
	}

	// Listener replay over loopback UDP: bind an ephemeral port and
	// read the bound address off the listener's banner.
	recv := exec.Command(filepath.Join(bin, "netfail-listener"),
		"-listen", "127.0.0.1:0", "-configs", filepath.Join(campaign, "configs"),
		"-limit", "50")
	stdout, err := recv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	recv.Stderr = recv.Stdout
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	defer recv.Process.Kill()

	outCh := make(chan string, 1)
	addrCh := make(chan string, 1)
	go func() {
		data := &strings.Builder{}
		buf := make([]byte, 4096)
		sentAddr := false
		for {
			n, err := stdout.Read(buf)
			data.Write(buf[:n])
			if !sentAddr {
				if line, ok := bannerAddr(data.String()); ok {
					addrCh <- line
					sentAddr = true
				}
			}
			if err != nil {
				outCh <- data.String()
				return
			}
		}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("listener banner never appeared")
	}
	out, err = exec.Command(filepath.Join(bin, "netfail-listener"),
		"-replay", filepath.Join(campaign, "lsps.log"), "-to", addr).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "replayed") {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if err := recv.Wait(); err != nil {
		t.Fatalf("listener: %v", err)
	}
	recvText := <-outCh
	if !strings.Contains(recvText, "done: 50 LSPs") {
		t.Errorf("listener output:\n%s", recvText)
	}
}

// bannerAddr extracts the bound address from the listener's
// "listening on HOST:PORT; ..." banner.
func bannerAddr(s string) (string, bool) {
	const prefix = "listening on "
	i := strings.Index(s, prefix)
	if i < 0 {
		return "", false
	}
	rest := s[i+len(prefix):]
	j := strings.IndexAny(rest, "; \n")
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

func TestCLISeedMode(t *testing.T) {
	bin := buildCommands(t)
	out, err := exec.Command(filepath.Join(bin, "netfail-analyze"),
		"-seed", "3", "-table", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("seed mode: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "IS reachability") {
		t.Errorf("output:\n%s", out)
	}
	// Strict is the default and has no flag: -lenient is the one
	// spelling, so -strict is the flag package's usage error.
	err = exec.Command(filepath.Join(bin, "netfail-analyze"), "-seed", "3", "-table", "2", "-strict").Run()
	var usage *exec.ExitError
	if !errors.As(err, &usage) || usage.ExitCode() != 2 {
		t.Errorf("netfail-analyze -strict: %v, want exit status 2", err)
	}
}
