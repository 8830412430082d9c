package syslog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"netfail/internal/backoff"
	"netfail/internal/salvage"
)

// Collector is the central logging facility: it receives syslog lines
// over UDP and appends the parsed messages to an in-memory log. Every
// router in the network is configured to send to one collector.
//
// Read-retry policy: a persistent non-timeout socket error does not
// kill the capture silently — the read is retried on the shared
// backoff.Default schedule, and only when its retry budget is
// exhausted does the collector stop, recording the terminal error for
// Err and Close to surface.
type Collector struct {
	conn  *net.UDPConn
	ref   time.Time
	tok   *Tokenizer
	retry backoff.Policy
	sleep func(time.Duration) // injected in tests to pin the schedule

	mu       sync.Mutex
	messages []*Message // guarded by mu
	dropped  int        // guarded by mu
	overflow int        // guarded by mu
	limit    int        // guarded by mu
	err      error      // guarded by mu

	done chan struct{}
	wg   sync.WaitGroup
}

// NewCollector starts a collector listening on addr (e.g.
// "127.0.0.1:0"). ref is the reference time for resolving the
// year-less RFC 3164 timestamps.
func NewCollector(addr string, ref time.Time) (*Collector, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("syslog: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("syslog: listen: %w", err)
	}
	c := newCollector(conn, ref)
	c.start()
	return c, nil
}

// newCollector wires a collector without starting its capture loop,
// so tests can swap the sleeper (and pin the retry schedule) before
// any goroutine reads the fields.
func newCollector(conn *net.UDPConn, ref time.Time) *Collector {
	return &Collector{conn: conn, ref: ref, tok: NewTokenizer(), retry: backoff.Default, sleep: time.Sleep, done: make(chan struct{})}
}

// start launches the capture loop.
func (c *Collector) start() {
	c.wg.Add(1)
	go c.run()
}

// Addr returns the address the collector is listening on.
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

func (c *Collector) run() {
	defer c.wg.Done()
	buf := make([]byte, 64*1024)
	retry := c.retry.New()
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-c.done:
				return
			default:
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				retry.Reset()
				continue
			}
			d, ok := retry.Next()
			if !ok {
				c.mu.Lock()
				c.err = fmt.Errorf("syslog: capture stopped after %d consecutive read errors: %w", retry.Attempts(), err)
				c.mu.Unlock()
				return
			}
			c.sleep(d)
			continue
		}
		retry.Reset()
		// Parse straight off the datagram buffer: ParseBytes interns
		// the retained strings, so buf is free to be overwritten by
		// the next read.
		m := new(Message)
		err = c.tok.ParseBytes(buf[:n], c.ref, m)
		c.mu.Lock()
		switch {
		case err != nil:
			c.dropped++
		case c.limit > 0 && len(c.messages) >= c.limit:
			c.overflow++
		default:
			c.messages = append(c.messages, m)
		}
		c.mu.Unlock()
	}
}

// Messages returns a snapshot of the messages received so far.
func (c *Collector) Messages() []*Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Message(nil), c.messages...)
}

// Dropped returns the count of unparseable datagrams.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// SetLimit caps the in-memory message log at n messages (0 restores
// unbounded capture). Parseable messages arriving past the cap are
// dropped and accounted by Overflow, so a bounded collector degrades
// with the same drop accounting as the unbounded one.
func (c *Collector) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
}

// Overflow returns the count of parseable messages dropped because
// the SetLimit cap was reached.
func (c *Collector) Overflow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overflow
}

// Err returns the terminal read error that stopped the capture, or
// nil while the collector is healthy. A non-nil Err means the message
// log is truncated: everything after the failure was never received.
func (c *Collector) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close stops the collector. If the capture already died on a
// persistent read error, that terminal error is surfaced here (joined
// with any socket-close error) so a truncated capture cannot pass for
// a clean shutdown.
func (c *Collector) Close() error {
	close(c.done)
	err := c.conn.Close()
	c.wg.Wait()
	return errors.Join(c.Err(), err)
}

// Sender transmits syslog messages over UDP, as a router's syslog
// process would.
type Sender struct {
	conn net.Conn
}

// NewSender dials the collector.
func NewSender(addr string) (*Sender, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("syslog: dial %q: %w", addr, err)
	}
	return &Sender{conn: conn}, nil
}

// Send transmits one message. UDP delivery is, faithfully, best
// effort.
func (s *Sender) Send(m *Message) error {
	_, err := io.WriteString(s.conn, m.Render())
	return err
}

// Close releases the socket.
func (s *Sender) Close() error { return s.conn.Close() }

// WriteLog writes messages to w, one rendered line each: the on-disk
// archive format the analysis pipeline reads back.
func WriteLog(w io.Writer, messages []*Message) error {
	bw := bufio.NewWriter(w)
	for _, m := range messages {
		if _, err := bw.WriteString(m.Render()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLog parses a log written by WriteLog. Unparseable lines are
// counted, not fatal, matching operational reality.
//
// RFC 3164 timestamps carry no year, so a single fixed reference
// would misplace messages more than six months from it — fatal for a
// 13-month archive. Logs are chronological, so the reader resolves
// each line against a rolling reference: the previous message's
// resolved time (seeded by ref, the archive's start).
func ReadLog(r io.Reader, ref time.Time) (messages []*Message, badLines int, err error) {
	messages, rep, err := ReadLogLenient(r, ref)
	return messages, rep.Skipped, err
}

// ReadLogLenient is ReadLog with full salvage accounting: the same
// skip-and-count semantics, but the report also records where the bad
// lines were. (This reader was always lenient — the archive format is
// lossy by construction — so there is no strict variant to pair it
// with.)
func ReadLogLenient(r io.Reader, ref time.Time) ([]*Message, *salvage.Report, error) {
	var messages []*Message
	rep := &salvage.Report{}
	// One tokenizer per archive: messages come out with interned
	// (canonical, shared) strings instead of per-line copies, and the
	// scanner's byte buffer is never converted to a throwaway string.
	tok := NewTokenizer()
	rolling := ref
	err := ScanLog(r, func(lineNo int, line []byte) error {
		m := new(Message)
		if perr := tok.ParseBytes(line, rolling, m); perr != nil {
			rep.Skip(lineNo, "unparseable line")
			return nil
		}
		if m.Timestamp.After(rolling) {
			rolling = m.Timestamp
		}
		messages = append(messages, m)
		rep.Kept++
		return nil
	})
	return messages, rep, err
}

// ScanLog calls fn with every non-empty line of a log written by
// WriteLog and its 1-based line number, stopping at fn's first error.
// The line is only valid during the call.
func ScanLog(r io.Reader, fn func(lineNo int, line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if line := sc.Bytes(); len(line) > 0 {
			if err := fn(lineNo, line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
