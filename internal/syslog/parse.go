package syslog

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"netfail/internal/intern"
)

// Parsing errors.
var (
	ErrMalformed = errors.New("syslog: malformed message")
	ErrNotLink   = errors.New("syslog: not a link-state message")
)

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

	errBadAdjPrefix      = fmt.Errorf("%w: not an adjacency message", ErrMalformed)
	errMissingInterface  = fmt.Errorf("%w: missing interface", ErrMalformed)
	errUntermInterface   = fmt.Errorf("%w: unterminated interface", ErrMalformed)
	errBadDirection      = fmt.Errorf("%w: bad direction", ErrMalformed)
	errBadIfacePrefix    = fmt.Errorf("%w: not an interface message", ErrMalformed)
	errMissingStateWords = fmt.Errorf("%w: missing state clause", ErrMalformed)
)

// Tokenizer parses wire-format lines directly from byte buffers,
// materializing the string fields through intern tables so a warm
// parse — every symbol already seen — allocates nothing and the
// returned Message owns no part of the input buffer. Equal fields come
// out pointer-equal, which downstream maps exploit. A Tokenizer belongs
// to one reader (a Driver, a ReadLog call) and is not safe for
// concurrent use.
type Tokenizer struct {
	// symbols interns the bounded vocabulary: hostnames and mnemonics.
	// A month-scale campaign sees a few hundred of each.
	symbols intern.Table
	// texts interns the free-text field. Real captures repeat a small
	// set of texts (the same adjacency flaps over and over), but
	// corrupted or hostile input is unbounded, so this table carries a
	// limit past which texts degrade to ordinary fresh strings.
	texts intern.Table
}

// textInternLimit caps the free-text table: generous for the repeated
// flap messages of a real capture, harmless when corrupted input
// blows past it.
const textInternLimit = 1 << 16

// NewTokenizer returns a Tokenizer with empty intern tables.
func NewTokenizer() *Tokenizer {
	return &Tokenizer{texts: intern.Table{Limit: textInternLimit}}
}

// ParseBytes decodes one wire-format line from a byte buffer into m.
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
	m.Text = tk.texts.Intern(text)
	return nil
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

// LinkFamily returns the event type of a link-state mnemonic, or
// EventOther for a mnemonic outside the three families the analysis
// consumes.
func LinkFamily(mnemonic string) EventType {
	switch mnemonic {
	case mnemIOSAdj, mnemXRAdj:
		return EventISISAdj
	case mnemLink:
		return EventLink
	case mnemLineProto:
		return EventLineProto
	}
	return EventOther
}

// ParseLinkEventInto extracts the structured link event from a
// message into a caller-owned LinkEvent, returning ErrNotLink for
// mnemonics outside the link families; loops reuse one event across a
// capture. The string fields are substrings of the message's fields,
// so a successful extraction performs zero allocations. On error ev is
// partially overwritten and must not be used.
func ParseLinkEventInto(m *Message, ev *LinkEvent) error {
	// Fields are assigned individually rather than via a struct
	// literal: every success path below overwrites Interface, Up, and
	// (for adjacency messages) Neighbor/Reason, so only the fields the
	// path leaves untouched need explicit clearing. This keeps the
	// extract loop from re-zeroing the whole 112-byte struct per
	// message.
	ev.Router = m.Hostname
	ev.Time = m.Timestamp
	ev.Seq = m.Seq
	switch ev.Type = LinkFamily(m.Mnemonic); ev.Type {
	case EventISISAdj:
		text := m.Text
		if m.Mnemonic == mnemIOSAdj {
			text = strings.TrimPrefix(text, "ISIS: ")
		}
		return parseAdjText(ev, text)
	case EventLink:
		return parseIfaceText(ev, m.Text, "Interface ")
	case EventLineProto:
		return parseIfaceText(ev, m.Text, "Line protocol on Interface ")
	default:
		return ErrNotLink
	}
}

// parseAdjText handles "Adjacency to NEIGHBOR (IFACE) [\(L2\) ]DIR, reason".
func parseAdjText(ev *LinkEvent, text string) error {
	const prefix = "Adjacency to "
	if !strings.HasPrefix(text, prefix) {
		return errBadAdjPrefix
	}
	text = text[len(prefix):]
	open := strings.Index(text, " (")
	if open < 0 {
		return errMissingInterface
	}
	ev.Neighbor = text[:open]
	text = text[open+2:]
	closeP := strings.Index(text, ") ")
	if closeP < 0 {
		return errUntermInterface
	}
	ev.Interface = text[:closeP]
	text = text[closeP+2:]
	text = strings.TrimPrefix(text, "(L2) ")
	comma := strings.Index(text, ", ")
	dir := text
	ev.Reason = ""
	if comma >= 0 {
		dir = text[:comma]
		ev.Reason = text[comma+2:]
	}
	switch dir {
	case "Up":
		ev.Up = true
	case "Down":
		ev.Up = false
	default:
		return errBadDirection
	}
	return nil
}

// parseIfaceText handles "... IFACE, changed state to DIR".
func parseIfaceText(ev *LinkEvent, text, prefix string) error {
	if !strings.HasPrefix(text, prefix) {
		return errBadIfacePrefix
	}
	text = text[len(prefix):]
	const sep = ", changed state to "
	i := strings.Index(text, sep)
	if i < 0 {
		return errMissingStateWords
	}
	ev.Interface = text[:i]
	ev.Neighbor = ""
	ev.Reason = ""
	switch text[i+len(sep):] {
	case "up":
		ev.Up = true
	case "down":
		ev.Up = false
	default:
		return errBadDirection
	}
	return nil
}
