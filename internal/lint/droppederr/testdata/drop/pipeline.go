// Fixture derived from the repository's real ingest pipeline: the
// call shapes come from internal/syslog/log.go (Parse feeding the
// message log), internal/listener (Process feeding the LSP database),
// and cmd/netfail-serve's UDP source (ParseBytes into a reused
// Message per datagram).
// Before droppederr, any of these errors could be dropped on the
// floor and the trace would silently shorten — the defect class
// Liang et al. and Simache & Kaâniche document for syslog pipelines.
package drop

import (
	"fmt"
	"io"
	"time"

	"netfail/internal/isis"
	"netfail/internal/listener"
	"netfail/internal/syslog"
	"netfail/internal/topo"
)

// ingest loses messages three different ways.
func ingest(lines []string, ref time.Time) []*syslog.Message {
	var out []*syslog.Message
	for _, line := range lines {
		// Blank-binding the parse error: the message count silently
		// diverges from the line count.
		m, _ := syslog.Parse(line, ref) // want `error returned by syslog\.Parse is assigned to the blank identifier`
		out = append(out, m)
	}
	return out
}

func replay(l *listener.Listener, at time.Time, pkts [][]byte) {
	for _, pkt := range pkts {
		// Bare call statement: a decode failure vanishes entirely.
		l.Process(at, pkt) // want `error returned by listener\.Process is silently discarded`
	}
}

func tokenize(tok *syslog.Tokenizer, datagram []byte, ref time.Time, m *syslog.Message) {
	tok.ParseBytes(datagram, ref, m)     // want `error returned by syslog\.ParseBytes is silently discarded`
	_ = tok.ParseBytes(datagram, ref, m) // want `error returned by syslog\.ParseBytes is assigned to the blank identifier`
}

func peek(pkt []byte) isis.PDUType {
	typ, _ := isis.PeekType(pkt) // want `error returned by isis\.PeekType is assigned to the blank identifier`
	return typ
}

// handled shows the accepted shapes: checked errors, counted errors,
// deferred cleanup, and out-of-scope callees.
func handled(net *topo.Network, lines []string, pkts [][]byte, ref time.Time) (int, error) {
	bad := 0
	var kept []*syslog.Message
	for _, line := range lines {
		m, err := syslog.Parse(line, ref)
		if err != nil {
			bad++ // counted, not fatal: ReadLog's documented contract
			continue
		}
		kept = append(kept, m)
	}
	l := listener.New(net)
	for _, pkt := range pkts {
		if err := l.Process(ref, pkt); err != nil {
			return bad, err
		}
	}
	// A deferred call has no binding position for the error; the
	// analyzer leaves it to the cleanup-path convention.
	defer syslog.WriteLog(io.Discard, kept)
	fmt.Println(bad) // out-of-scope package: not a traced callee
	return bad, nil
}
