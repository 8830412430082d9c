package netfail

// CLI integration: build the three commands and drive the full
// sim → analyze → live-ingest flow through their real flag surfaces,
// the way a user would.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"netfail/internal/isis"
	"netfail/internal/netsim"
	"netfail/internal/store"
)

// buildCommands compiles the binaries once into a shared temp dir.
func buildCommands(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration")
	}
	dir := t.TempDir()
	for _, name := range []string{"netfail-sim", "netfail-analyze", "netfail-serve"} {
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

	// Live mode over loopback UDP: netfail-serve receives LSPs against
	// the campaign's mined namespace. Each of the first 50 captured LSPs
	// goes out once /api/v1/metrics shows the one before it ingested;
	// SIGTERM then drains the daemon, and its summary counts them.
	isisAddr, debugAddr := freeAddr(t, "udp"), freeAddr(t, "tcp")
	daemon := exec.Command(filepath.Join(bin, "netfail-serve"),
		"-listen-isis", isisAddr, "-configs", filepath.Join(campaign, "configs"),
		"-state", filepath.Join(t.TempDir(), "state"), "-debug-addr", debugAddr)
	var daemonOut bytes.Buffer
	daemon.Stdout, daemon.Stderr = &daemonOut, &daemonOut
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	lf, err := os.Open(filepath.Join(campaign, "lsps.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	lsps, err := netsim.ReadLSPLog(lf)
	if err != nil || len(lsps) < 50 {
		t.Fatalf("lsps.log: %d LSPs, %v", len(lsps), err)
	}
	conn, err := net.Dial("udp", isisAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ingested := func() int64 {
		resp, err := http.Get("http://" + debugAddr + "/api/v1/metrics")
		if err != nil {
			return 0 // not serving yet
		}
		defer resp.Body.Close()
		var metrics map[string]int64
		if json.NewDecoder(resp.Body).Decode(&metrics) != nil {
			return 0
		}
		return metrics["serve.ingested.isis"]
	}
	// A datagram sent before the source binds is lost, so first send
	// bare hello headers, which the listener skips, until one lands.
	hello := []byte{isis.IRPD, 8, isis.ProtocolVersion, 0, byte(isis.TypeP2PHello), isis.ProtocolVersion, 0, 0}
	deadline := time.Now().Add(30 * time.Second)
	wait := func(what string) {
		if time.Now().After(deadline) {
			_ = daemon.Process.Kill() // its output is ours to read once it has exited
			_ = daemon.Wait()
			t.Fatalf("netfail-serve never ingested %s\n%s", what, daemonOut.String())
		}
		time.Sleep(time.Millisecond)
	}
	for ingested() == 0 {
		_, _ = conn.Write(hello) // lost hellos are resent
		wait("a hello")
	}
	base := ingested()
	for i, c := range lsps[:50] {
		if _, err := conn.Write(c.Data); err != nil {
			t.Fatal(err)
		}
		for ingested() <= base+int64(i) {
			wait(fmt.Sprintf("LSP %d", i))
		}
	}
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("netfail-serve live mode: %v\n%s", err, daemonOut.String())
	}
	if !strings.Contains(daemonOut.String(), "stopped: 0 syslog messages (0 unparseable), 50 LSPs") {
		t.Errorf("netfail-serve live mode output:\n%s", daemonOut.String())
	}
}

// freeAddr returns a loopback address with a port the kernel just
// handed out on the network ("udp" or "tcp") and took back, for a
// daemon that takes its address on the command line.
func freeAddr(t *testing.T, network string) string {
	t.Helper()
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.LocalAddr().String()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
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
