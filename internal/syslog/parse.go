package syslog

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"netfail/internal/intern"
)

// ErrMalformed is the parsing error.
var ErrMalformed = errors.New("syslog: malformed message")

// The hot path returns preconstructed errors: corrupted captures make
// parse failures routine (ReadLog counts them per line), and building
// a fresh annotated error per bad line is exactly the per-record
// garbage this path exists to avoid. errors.Is(err, ErrMalformed)
// still classifies every one of them.
var (
	errMissingPRI      = fmt.Errorf("%w: missing PRI", ErrMalformed)
	errBadPRI          = fmt.Errorf("%w: bad PRI", ErrMalformed)
	errTruncatedHeader = fmt.Errorf("%w: truncated header", ErrMalformed)
	errBadTimestamp    = fmt.Errorf("%w: bad timestamp", ErrMalformed)
	errMissingHostname = fmt.Errorf("%w: missing hostname", ErrMalformed)
	errMissingSeqTag   = fmt.Errorf("%w: missing sequence tag", ErrMalformed)
	errBadSeq          = fmt.Errorf("%w: bad sequence", ErrMalformed)
	errMissingMnemonic = fmt.Errorf("%w: missing mnemonic", ErrMalformed)
	errMissingMnemSep  = fmt.Errorf("%w: missing mnemonic separator", ErrMalformed)
)

// Tokenizer parses wire-format lines directly from byte buffers,
// materializing the string fields through intern tables so a warm
// parse — every symbol already seen — allocates nothing and the
// returned Message owns no part of the input buffer. Equal fields come
// out pointer-equal, which downstream maps exploit. A Tokenizer belongs
// to one reader (a Driver, a ReadLog call) and is not safe for
// concurrent use.
type Tokenizer struct {
	// symbols interns the vocabulary: hostnames and mnemonics. A
	// month-scale campaign sees a few hundred of each.
	symbols intern.Table
	// texts interns the body: a link event's fields, or the text.
	// Real captures repeat a small set of them (the same adjacency
	// flaps over and over).
	texts intern.Table
	canon []byte // a parsed event rendered back, to compare with its text
}

// internLimit caps each intern table, since corrupted or hostile input
// is unbounded: generous for the hosts, mnemonics and repeated flap
// messages of a real capture, and past it new strings degrade to
// ordinary fresh ones, which downstream maps key by value all the same.
const internLimit = 1 << 16

// NewTokenizer returns a Tokenizer with empty intern tables.
func NewTokenizer() *Tokenizer {
	return &Tokenizer{symbols: intern.Table{Limit: internLimit}, texts: intern.Table{Limit: internLimit}}
}

// ParseBytes decodes one wire-format line from a byte buffer into m:
// the one place text becomes fields. A link-state line whose text
// reads as its template fills m.Link, keeping m.Text only when that
// text is not the event's canonical rendering.
// The buffer may be reused immediately: every retained string is
// interned or freshly copied. On error m is partially overwritten and
// must not be used. RFC 3164 timestamps carry no year, so ref supplies
// one: the timestamp is placed in the year that puts it closest to
// ref, which handles logs spanning a year boundary (the study period
// Oct 2010 – Nov 2011 does).
func (tk *Tokenizer) ParseBytes(line []byte, ref time.Time, m *Message) error {
	host, mnem, text, err := tokenize(line, ref, m)
	if err != nil {
		return err
	}
	m.Hostname = tk.symbols.Intern(host)
	m.Mnemonic = tk.symbols.Intern(mnem)
	if tk.parseLink(m, text) {
		tk.canon = m.Link.appendText(tk.canon[:0], m.Mnemonic)
		if bytes.Equal(tk.canon, text) {
			m.Text = ""
			return nil
		}
	} else {
		m.Link = LinkEvent{}
	}
	m.Text = tk.texts.Intern(text)
	return nil
}

// parseLink reads text as the link-state template m.Mnemonic names
// into m.Link, reporting whether it does. On false m.Link is partially
// written.
func (tk *Tokenizer) parseLink(m *Message, text []byte) bool {
	ev := &m.Link
	switch m.Mnemonic {
	case mnemIOSAdj:
		ev.Type = EventISISAdj
		return tk.parseAdj(ev, bytes.TrimPrefix(text, []byte("ISIS: ")))
	case mnemXRAdj:
		ev.Type = EventISISAdj
		return tk.parseAdj(ev, text)
	case mnemLink:
		ev.Type = EventLink
		return tk.parseIface(ev, text, "Interface ")
	case mnemLineProto:
		ev.Type = EventLineProto
		return tk.parseIface(ev, text, "Line protocol on Interface ")
	}
	return false
}

// parseAdj reads "Adjacency to NEIGHBOR (IFACE) [(L2) ]DIR[, REASON]".
func (tk *Tokenizer) parseAdj(ev *LinkEvent, text []byte) bool {
	text, ok := bytes.CutPrefix(text, []byte("Adjacency to "))
	if !ok {
		return false
	}
	neighbor, text, ok := bytes.Cut(text, []byte(" ("))
	if !ok {
		return false
	}
	iface, text, ok := bytes.Cut(text, []byte(") "))
	if !ok {
		return false
	}
	text = bytes.TrimPrefix(text, []byte("(L2) "))
	dir, reason, _ := bytes.Cut(text, []byte(", "))
	if ev.Up, ok = parseDir(dir, "Up", "Down"); !ok {
		return false
	}
	ev.Neighbor = tk.texts.Intern(neighbor)
	ev.Interface = tk.texts.Intern(iface)
	ev.Reason = tk.texts.Intern(reason)
	return true
}

// parseIface reads "PREFIX IFACE, changed state to DIR".
func (tk *Tokenizer) parseIface(ev *LinkEvent, text []byte, prefix string) bool {
	text, ok := bytes.CutPrefix(text, []byte(prefix))
	if !ok {
		return false
	}
	iface, dir, ok := bytes.Cut(text, []byte(", changed state to "))
	if !ok {
		return false
	}
	if ev.Up, ok = parseDir(dir, "up", "down"); !ok {
		return false
	}
	ev.Interface = tk.texts.Intern(iface)
	ev.Neighbor, ev.Reason = "", ""
	return true
}

// parseDir reads a transition's direction word.
func parseDir(dir []byte, up, down string) (isUp, ok bool) {
	return string(dir) == up, string(dir) == up || string(dir) == down
}

// resolveYear places a year-less timestamp — t, in year 0 UTC — in the
// year that brings it closest to ref: ref.Year() (read in ref's
// location), the year before or the year after, with the date and
// clock kept in UTC. Candidates one year apart lie at least 365 days
// apart, so a ref.Year() candidate within 182 days of ref is nearer
// than either neighbour (at least 183 days away) and is returned
// without trying them.
func resolveYear(t, ref time.Time) time.Time {
	best := t.AddDate(ref.Year(), 0, 0)
	bestDiff := absDuration(best.Sub(ref))
	if bestDiff <= 182*24*time.Hour {
		return best
	}
	for _, y := range [2]int{ref.Year() - 1, ref.Year() + 1} {
		cand := t.AddDate(y, 0, 0)
		if d := absDuration(cand.Sub(ref)); d < bestDiff {
			best, bestDiff = cand, d
		}
	}
	return best
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
