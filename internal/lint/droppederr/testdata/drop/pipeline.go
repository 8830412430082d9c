// Fixture derived from the repository's real ingest pipeline: the
// call shapes come from the flat campaign reader (ReadLog over the
// syslog archive), internal/listener (Process feeding the LSP
// database), and cmd/netfail-serve's UDP source (ParseBytes into a
// reused Message per datagram).
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
func ingest(archive io.Reader, ref time.Time) []*syslog.Message {
	// Blank-binding the read error: a log cut short by an I/O error
	// reads as a complete one.
	out, _, _ := syslog.ReadLog(archive, ref) // want `error returned by syslog\.ReadLog is assigned to the blank identifier`
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
func handled(net *topo.Network, archive io.Reader, pkts [][]byte, ref time.Time) (int, error) {
	kept, bad, err := syslog.ReadLog(archive, ref)
	if err != nil {
		return bad, err
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
