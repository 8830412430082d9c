package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"netfail"
	"netfail/internal/clock"
	"netfail/internal/obs"
	"netfail/internal/serve"
)

var loopback = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}

// reservePort returns a loopback port for a udpSource to bind: Run
// takes an address, and the test has to know where to send.
func reservePort(t *testing.T) *net.UDPAddr {
	t.Helper()
	probe, err := net.ListenUDP("udp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	return probe.LocalAddr().(*net.UDPAddr)
}

// TestUDPSourceRunLeavesNoGoroutine pins the restart path of live
// mode: the supervisor restarts a failed source under the same
// context for as long as the daemon lives, so whatever Run starts to
// watch that context must be gone when Run returns, not when the
// context is finally canceled.
func TestUDPSourceRunLeavesNoGoroutine(t *testing.T) {
	addr := reservePort(t)
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

// sharedClock is a clock.Fake the test sets between datagrams while the
// sources' goroutines read it.
type sharedClock struct {
	mu   sync.Mutex
	fake *clock.Fake // guarded by mu
}

func (c *sharedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fake.Now()
}

func (c *sharedClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fake.Set(t)
}

// TestLiveUDPMatchesBatch is live mode's oracle: a seeded campaign sent
// datagram by datagram to the daemon's two UDP sources — socket, queue,
// WAL, handler, driver — must finish as the report netfail.Analyze
// renders of the same campaign. Records go lock-step, one in flight per
// source, so loopback can neither drop nor reorder them.
func TestLiveUDPMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("sends a 14-day campaign over loopback UDP")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	camp, err := netfail.Simulate(ctx, netfail.SimulationConfig{Seed: 20, Start: start, End: start.Add(14 * 24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	report := func(study *netfail.Study, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := study.ReportContext(ctx, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := report(netfail.Analyze(ctx, camp))

	mined, err := netfail.MineConfigs(camp)
	if err != nil {
		t.Fatal(err)
	}
	clk := &sharedClock{fake: clock.NewFake(start)}
	reg := obs.NewRegistry()
	cfg := serve.Config{Dir: t.TempDir(), Registry: reg, Clock: clk}
	syslogAddr, isisAddr := reservePort(t), reservePort(t)
	sender, err := net.ListenUDP("udp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	type served struct {
		d   *netfail.Driver
		err error
	}
	done := make(chan served, 1)
	live, stop := context.WithCancel(ctx)
	defer stop()
	go func() {
		d, err := ingest(live, cfg, reg,
			&netfail.Study{Campaign: camp, Mined: mined, Tickets: netfail.GenerateTickets(camp)}, "",
			&udpSource{name: "syslog", addr: syslogAddr.String(), clk: clk},
			&udpSource{name: "isis", addr: isisAddr.String(), clk: clk})
		done <- served{d, err}
	}()

	// feed sends n records to one source, each once the daemon has
	// ingested the one before. A datagram sent before the source has
	// bound is lost, so it first pings with one the handler drops —
	// counted under dropped, no part of any report — until a ping has
	// been ingested; every ping sent by then is ahead of the records.
	feed := func(source string, to *net.UDPAddr, dropped string, n int, record func(i int) []byte) {
		t.Helper()
		ingested, drops := reg.Counter("serve.ingested."+source), reg.Counter(dropped)
		send := func(datagram []byte) {
			t.Helper()
			if _, err := sender.WriteToUDP(datagram, to); err != nil {
				t.Fatal(err)
			}
		}
		pause := func(d time.Duration) {
			t.Helper()
			if ctx.Err() != nil {
				t.Fatalf("%s: out of time with %d of %d records ingested", source, ingested.Value()-drops.Value(), n)
			}
			time.Sleep(d)
		}
		for ingested.Value() == 0 {
			send([]byte("ping"))
			pause(time.Millisecond)
		}
		for i := 0; i < n; i++ {
			send(record(i))
			for ingested.Value()-drops.Value() <= int64(i) {
				pause(20 * time.Microsecond)
			}
		}
		if got := ingested.Value() - drops.Value(); got != int64(n) {
			t.Fatalf("%s: %d records ingested, %d sent", source, got, n)
		}
	}
	var line []byte
	feed("syslog", syslogAddr, "drops.serve.syslog_parse", len(camp.Syslog), func(i int) []byte {
		line = camp.Syslog[i].AppendRender(line[:0])
		return line
	})
	feed("isis", isisAddr, "drops.serve.decode_errors", len(camp.LSPLog), func(i int) []byte {
		clk.Set(camp.LSPLog[i].Time) // the source stamps arrival; the listener dates transitions by it
		return camp.LSPLog[i].Data
	})

	stop()
	s := <-done
	if s.err != nil {
		t.Fatal(s.err)
	}
	if got := report(s.d.Finish(ctx)); !bytes.Equal(got, want) {
		t.Errorf("report served over UDP differs from netfail.Analyze's (%d vs %d bytes)", len(got), len(want))
	}
}
