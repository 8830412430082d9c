// Command netfail-listener demonstrates the live wire path of the
// passive IS-IS listener: binary LSPs arrive over UDP (one PDU per
// datagram), are decoded, resolved onto the config-mined link
// namespace, and printed as link state transitions as they happen —
// the role PyRT played in the paper.
//
// Receive mode (run first):
//
//	netfail-listener -listen 127.0.0.1:9127 -configs ./campaign/configs
//
// Replay mode (send a captured campaign to a listener):
//
//	netfail-listener -replay ./campaign/lsps.log -to 127.0.0.1:9127
//
// With -debug-addr the receive loop also serves an HTTP debug
// endpoint: live pipeline counters at /api/v1/metrics and the
// net/http/pprof profiles under /debug/pprof/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"netfail/internal/api"
	"netfail/internal/backoff"
	"netfail/internal/clock"
	"netfail/internal/config"
	"netfail/internal/isis"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/obs"
	"netfail/internal/topo"
)

func main() {
	var (
		listen  = flag.String("listen", "", "address to receive LSPs on (receive mode)")
		configs = flag.String("configs", "", "config archive directory for the link namespace (receive mode)")
		replay  = flag.String("replay", "", "LSP capture file to transmit (replay mode)")
		to      = flag.String("to", "", "destination address (replay mode)")
		limit   = flag.Int("limit", 0, "stop after this many LSPs (0 = unlimited)")
		debug   = config.DebugAddrFlag(flag.CommandLine)
	)
	flag.Parse()

	var err error
	switch {
	case *listen != "" && *configs != "":
		err = receive(*listen, *configs, *limit, clock.System(), *debug)
	case *replay != "" && *to != "":
		err = transmit(*replay, *to)
	default:
		err = fmt.Errorf("need either -listen with -configs, or -replay with -to")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netfail-listener:", err)
		os.Exit(1)
	}
}

func receive(addr, configDir string, limit int, clk clock.Clock, debugAddr string) error {
	archive, err := config.LoadDir(configDir)
	if err != nil {
		return err
	}
	mined, err := config.Mine(archive)
	if err != nil {
		return err
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("listening on %s; %d routers, %d links in namespace\n",
		conn.LocalAddr(), len(mined.Network.Routers), len(mined.Network.Links))

	// Live counters: drops must be observable while the capture runs,
	// not just in the exit summary — a listener that silently drops
	// LSPs for hours is the paper's syslog failure mode reproduced.
	reg := obs.NewRegistry()
	if debugAddr != "" {
		srv := api.NewServer(debugAddr, api.Options{Registry: reg})
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "debug endpoint: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s/api/v1/metrics\n", debugAddr)
	}

	l := listener.New(mined.Network)
	var listenerID topo.SystemID // all-zero passive system ID
	buf := make([]byte, 64*1024)
	emitted := 0
	// A persistent socket error must not silently end the capture
	// mid-campaign: retry transient failures on the shared
	// backoff.Default schedule, give up loudly only when the budget
	// is spent.
	retry := backoff.Default.New()
	for limit == 0 || l.LSPCount() < limit {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			reg.Counter("listener.read_errors").Add(1)
			d, ok := retry.Next()
			if !ok {
				return fmt.Errorf("capture stopped after %d consecutive read errors: %w", retry.Attempts(), err)
			}
			fmt.Fprintf(os.Stderr, "read error (retry %d/%d): %v\n", retry.Attempts(), backoff.Default.Retries, err)
			time.Sleep(d)
			continue
		}
		retry.Reset()
		pkt := buf[:n]

		// Database synchronization: a CSNP describes the sender's
		// database; answer with a PSNP requesting what we lack
		// (ISO 10589 §7.3.17), exactly how a listener catches up.
		if typ, terr := isis.PeekType(pkt); terr == nil && typ == isis.TypeCSNPL2 {
			var csnp isis.CSNP
			if err := csnp.DecodeFromBytes(pkt); err != nil {
				fmt.Fprintf(os.Stderr, "bad CSNP: %v\n", err)
				continue
			}
			plan := l.Database().CompareCSNP(&csnp)
			if len(plan.Request) > 0 {
				if wire, err := plan.BuildPSNP(listenerID).Encode(); err == nil {
					if _, err := conn.WriteToUDP(wire, from); err != nil {
						fmt.Fprintf(os.Stderr, "psnp send: %v\n", err)
					}
				}
				fmt.Printf("CSNP from %v: requesting %d LSPs via PSNP\n", csnp.Source, len(plan.Request))
			}
			continue
		}

		reg.Counter("listener.datagrams").Add(1)
		if err := l.Process(clk.Now(), pkt); err != nil {
			reg.Counter("drops.listener.decode_errors").Add(1)
			fmt.Fprintf(os.Stderr, "decode error: %v\n", err)
			continue
		}
		reg.Gauge("listener.lsps").Set(int64(l.LSPCount()))
		for _, tr := range l.ISTransitionsSince(emitted) {
			fmt.Printf("%s %-4s %s (reported by %s)\n",
				tr.Time.Format("15:04:05.000"), tr.Dir, tr.Link, tr.Reporter)
			emitted++
		}
		reg.Gauge("transitions.listener.is").Set(int64(emitted))
	}
	res := l.Results()
	fmt.Printf("done: %d LSPs, %d IS transitions, %d IP transitions, %d stale, %d decode errors\n",
		res.LSPCount, len(res.ISTransitions), len(res.IPTransitions), res.StaleLSPs, res.DecodeErrors)
	return nil
}

func transmit(capture, to string) error {
	f, err := os.Open(capture)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := netsim.ReadLSPLog(f)
	if err != nil {
		return err
	}
	conn, err := net.Dial("udp", to)
	if err != nil {
		return err
	}
	defer conn.Close()
	sent := 0
	// Transient send failures walk the shared backoff schedule instead
	// of aborting the replay on the first hiccup; only a persistent
	// error (budget spent) is terminal.
	retry := backoff.Default.New()
	for i := 0; i < len(log); {
		if _, err := conn.Write(log[i].Data); err != nil {
			// A receiver that got what it wanted (-limit) closes its
			// socket while we still hold packets; the kernel reflects
			// the ICMP port-unreachable onto this connected socket as
			// ECONNREFUSED. For UDP that is "receiver done", not a
			// transmission failure — exit clean, no retrying.
			if errors.Is(err, syscall.ECONNREFUSED) {
				fmt.Printf("replayed %d of %d LSPs to %s (receiver closed)\n", sent, len(log), to)
				return nil
			}
			d, ok := retry.Next()
			if !ok {
				return fmt.Errorf("replay stopped after %d consecutive send errors: %w", retry.Attempts(), err)
			}
			time.Sleep(d)
			continue
		}
		retry.Reset()
		sent++
		i++
	}
	fmt.Printf("replayed %d LSPs to %s\n", len(log), to)
	return nil
}
