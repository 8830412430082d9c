package main

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"netfail/internal/clock"
	"netfail/internal/serve"
)

// TestUDPSourceRunLeavesNoGoroutine pins the restart path of live
// mode: the supervisor restarts a failed source under the same
// context for as long as the daemon lives, so whatever Run starts to
// watch that context must be gone when Run returns, not when the
// context is finally canceled.
func TestUDPSourceRunLeavesNoGoroutine(t *testing.T) {
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	// Reserve a port for the source to bind: Run takes an address, and
	// the test has to know where to send.
	probe, err := net.ListenUDP("udp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	sender, err := net.ListenUDP("udp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // after the assertions: the context outlives Run
	before := runtime.NumGoroutine()

	src := &udpSource{name: "syslog", addr: addr.String(), clk: clock.System()}
	emitFailed := errors.New("emit failed")
	done := make(chan error, 1)
	go func() {
		done <- src.Run(ctx, func(rec serve.Record) error {
			if string(rec.Data) != "<189>one datagram" {
				t.Errorf("emitted %q", rec.Data)
			}
			return emitFailed
		})
	}()
	// Datagrams sent before the source has bound are dropped, so keep
	// sending until the one that gets through makes emit fail.
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case err := <-done:
			if !errors.Is(err, emitFailed) {
				t.Fatalf("Run returned %v, want emit's error", err)
			}
			running = false
		case <-tick.C:
			_, _ = sender.WriteToUDP([]byte("<189>one datagram"), addr) // lost datagrams are resent
		case <-deadline:
			t.Fatal("Run did not return after emit failed")
		}
	}

	wait := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(wait) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before Run, %d after it returned with the context still live", before, n)
	}
}
