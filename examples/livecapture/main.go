// Livecapture: exercise both wire paths on real loopback sockets — a
// router device emits RFC 3164 syslog over UDP to a socket that parses
// each line, and floods binary IS-IS LSPs over UDP to a passive
// listener, which decodes the TLVs and reports the adjacency
// transition. This is the measurement apparatus of the paper in
// miniature; netfail-serve is the supervised, durable version.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"netfail/internal/clock"
	"netfail/internal/device"
	"netfail/internal/listener"
	"netfail/internal/obs"
	"netfail/internal/syslog"
	"netfail/internal/topo"
)

func main() {
	// Wall time enters through the sanctioned clock only (the
	// detclock analyzer forbids time.Now outside internal/clock).
	clk := clock.System()

	// A two-router network with one link.
	network := topo.NewNetwork()
	for i, name := range []string{"riv-core-01", "cpe-001"} {
		class := topo.Core
		if i == 1 {
			class = topo.CPE
		}
		if err := network.AddRouter(&topo.Router{
			Name: name, Class: class,
			SystemID: topo.SystemIDFromIndex(i + 1),
			Loopback: 10<<24 | uint32(i+1),
		}); err != nil {
			log.Fatal(err)
		}
	}
	link, err := network.AddLink(
		topo.Endpoint{Host: "riv-core-01", Port: "TenGigE0/0/0/0"},
		topo.Endpoint{Host: "cpe-001", Port: "GigabitEthernet0/0/0"},
		137<<24|164<<16, 100)
	if err != nil {
		log.Fatal(err)
	}

	// Live counters, the same registry netfail-listener serves over
	// -debug-addr; here they just summarize the capture at the end.
	reg := obs.NewRegistry()

	// Central syslog socket, as CENIC ran: parse each datagram, keep
	// the line as the parser understood it.
	sconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer sconn.Close()
	received := make(chan string, 4) // the four messages emit sends below
	go func() {
		buf := make([]byte, 64*1024)
		tok := syslog.NewTokenizer()
		var m syslog.Message
		for {
			n, _, err := sconn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if err := tok.ParseBytes(buf[:n], clk.Now(), &m); err != nil {
				reg.Counter("drops.syslog.parse").Add(1)
				continue
			}
			received <- string(m.AppendRender(nil))
		}
	}()
	sender, err := net.Dial("udp", sconn.LocalAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()

	// Passive IS-IS listener behind a UDP socket.
	lconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer lconn.Close()
	lsp := listener.New(network)
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := lconn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			reg.Counter("listener.datagrams").Add(1)
			if err := lsp.Process(clk.Now(), buf[:n]); err != nil {
				reg.Counter("drops.listener.decode_errors").Add(1)
				fmt.Println("listener:", err)
			}
		}
	}()
	flood, err := net.Dial("udp", lconn.LocalAddr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer flood.Close()

	core := device.New(network, network.Routers["riv-core-01"], syslog.DialectIOSXR)
	cpe := device.New(network, network.Routers["cpe-001"], syslog.DialectIOS)

	originate := func(d *device.Router) {
		wire, err := d.OriginateLSP().Encode()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := flood.Write(wire); err != nil {
			log.Fatal(err)
		}
	}
	emit := func(d *device.Router, up bool, reason string) {
		m, err := d.AdjMessage(clk.Now(), link.ID, up, reason)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sender.Write(m.AppendRender(nil)); err != nil {
			log.Fatal(err)
		}
	}

	// Baseline: both routers advertise the adjacency.
	originate(core)
	originate(cpe)

	// The link fails: both devices notice, log, and re-originate.
	fmt.Println("--- link fails ---")
	core.SetAdjacency(link.ID, false)
	cpe.SetAdjacency(link.ID, false)
	emit(core, false, "hold time expired")
	emit(cpe, false, "hold time expired")
	originate(core)
	originate(cpe)

	// Recovery.
	fmt.Println("--- link recovers ---")
	core.SetAdjacency(link.ID, true)
	cpe.SetAdjacency(link.ID, true)
	emit(core, true, "new adjacency")
	emit(cpe, true, "new adjacency")
	originate(core)
	originate(cpe)

	// Let the sockets drain.
	deadline := clk.Now().Add(3 * time.Second)
	for clk.Now().Before(deadline) {
		if len(received) == cap(received) && len(lsp.Results().ISTransitions) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Println("\nsyslog collector received:")
	for len(received) > 0 {
		fmt.Println(" ", <-received)
	}
	res := lsp.Results()
	fmt.Printf("\nIS-IS listener: %d LSPs decoded, transitions:\n", res.LSPCount)
	for _, tr := range res.ISTransitions {
		fmt.Printf("  %s %-4s %s (reported by %s)\n",
			tr.Time.Format("15:04:05.000"), tr.Dir, tr.Link, tr.Reporter)
	}

	fmt.Println("\ncapture counters:")
	if err := reg.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
