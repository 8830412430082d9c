package syslog

// The retired strings-based parser, preserved verbatim (names
// ref-prefixed, allocation behavior and all) as the oracle for the
// differential tests in equivalence_test.go: the []byte tokenizer
// must reproduce it bit for bit — time.Parse, strconv.Atoi,
// strconv.ParseUint, and strings.TrimSpace quirks included — over
// both clean and faultinject-corrupted corpora. Do not modernize this
// file; its fidelity to the old implementation is the point.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

func refParse(line string, ref time.Time) (*Message, error) {
	var m Message

	// <PRI>
	if len(line) < 3 || line[0] != '<' {
		return nil, fmt.Errorf("%w: missing PRI", ErrMalformed)
	}
	end := strings.IndexByte(line, '>')
	if end < 0 || end > 4 {
		return nil, fmt.Errorf("%w: bad PRI", ErrMalformed)
	}
	pri, err := strconv.Atoi(line[1:end])
	if err != nil || pri < 0 || pri > 191 {
		return nil, fmt.Errorf("%w: bad PRI %q", ErrMalformed, line[1:end])
	}
	m.Facility = Facility(pri / 8)
	m.Severity = Severity(pri % 8)
	rest := line[end+1:]

	// TIMESTAMP: fixed 15 chars "Mmm dd hh:mm:ss".
	if len(rest) < 16 {
		return nil, fmt.Errorf("%w: truncated header", ErrMalformed)
	}
	stamp, err := time.Parse(stampLayout, rest[:15])
	if err != nil {
		return nil, fmt.Errorf("%w: bad timestamp %q", ErrMalformed, rest[:15])
	}
	m.Timestamp = refResolveYear(stamp, ref)
	rest = rest[16:]

	// HOSTNAME
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, fmt.Errorf("%w: missing hostname", ErrMalformed)
	}
	m.Hostname = rest[:sp]
	rest = rest[sp+1:]

	// "seq: " tag.
	colon := strings.Index(rest, ": ")
	if colon < 0 {
		return nil, fmt.Errorf("%w: missing sequence tag", ErrMalformed)
	}
	seq, err := strconv.ParseUint(rest[:colon], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad sequence %q", ErrMalformed, rest[:colon])
	}
	m.Seq = seq
	rest = rest[colon+2:]

	// Optional high-resolution service timestamp before the mnemonic.
	if !strings.HasPrefix(rest, "%") {
		pct := strings.Index(rest, "%")
		if pct < 0 {
			return nil, fmt.Errorf("%w: missing mnemonic", ErrMalformed)
		}
		if hires, ok := refParseServiceStamp(strings.TrimSuffix(strings.TrimSpace(rest[:pct]), ":"), ref); ok {
			m.Timestamp = hires
		}
		rest = rest[pct:]
	}

	// %MNEMONIC: text
	colon = strings.Index(rest, ": ")
	if colon < 0 || len(rest) < 2 {
		return nil, fmt.Errorf("%w: missing mnemonic separator", ErrMalformed)
	}
	m.Mnemonic = strings.TrimPrefix(rest[:colon], "%")
	m.Text = rest[colon+2:]
	return &m, nil
}

func refParseServiceStamp(s string, ref time.Time) (time.Time, bool) {
	s = strings.TrimSuffix(s, " UTC")
	t, err := time.Parse(stampLayout+".000", s)
	if err != nil {
		return time.Time{}, false
	}
	return refResolveYear(t, ref), true
}

func refResolveYear(t, ref time.Time) time.Time {
	best := t.AddDate(ref.Year(), 0, 0)
	bestDiff := refAbsDuration(best.Sub(ref))
	for _, y := range []int{ref.Year() - 1, ref.Year() + 1} {
		cand := t.AddDate(y, 0, 0)
		if d := refAbsDuration(cand.Sub(ref)); d < bestDiff {
			best, bestDiff = cand, d
		}
	}
	return best
}

func refAbsDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func refParseLinkEvent(m *Message) (*LinkEvent, error) {
	ev := &LinkEvent{}
	switch m.Mnemonic {
	case "CLNS-5-ADJCHANGE":
		ev.Type = EventISISAdj
		text := strings.TrimPrefix(m.Text, "ISIS: ")
		return refParseAdjText(ev, text)
	case "ROUTING-ISIS-4-ADJCHANGE":
		ev.Type = EventISISAdj
		return refParseAdjText(ev, m.Text)
	case "LINK-3-UPDOWN":
		ev.Type = EventLink
		return refParseIfaceText(ev, m.Text, "Interface ")
	case "LINEPROTO-5-UPDOWN":
		ev.Type = EventLineProto
		return refParseIfaceText(ev, m.Text, "Line protocol on Interface ")
	default:
		return nil, errRefNotLink
	}
}

var errRefNotLink = errors.New("syslog: not a link-state message")

// refLinkText is the text the retired constructors concatenated for
// an event in its mnemonic's template.
func refLinkText(mnemonic string, ev *LinkEvent) string {
	dir, adjDir := "down", "Down"
	if ev.Up {
		dir, adjDir = "up", "Up"
	}
	switch mnemonic {
	case "CLNS-5-ADJCHANGE":
		return "ISIS: Adjacency to " + ev.Neighbor + " (" + ev.Interface + ") " + adjDir + ", " + ev.Reason
	case "ROUTING-ISIS-4-ADJCHANGE":
		return "Adjacency to " + ev.Neighbor + " (" + ev.Interface + ") (L2) " + adjDir + ", " + ev.Reason
	case "LINK-3-UPDOWN":
		return "Interface " + ev.Interface + ", changed state to " + dir
	default:
		return "Line protocol on Interface " + ev.Interface + ", changed state to " + dir
	}
}

func refParseAdjText(ev *LinkEvent, text string) (*LinkEvent, error) {
	const prefix = "Adjacency to "
	if !strings.HasPrefix(text, prefix) {
		return nil, fmt.Errorf("%w: %q", ErrMalformed, text)
	}
	text = text[len(prefix):]
	open := strings.Index(text, " (")
	if open < 0 {
		return nil, fmt.Errorf("%w: missing interface", ErrMalformed)
	}
	ev.Neighbor = text[:open]
	text = text[open+2:]
	closeP := strings.Index(text, ") ")
	if closeP < 0 {
		return nil, fmt.Errorf("%w: unterminated interface", ErrMalformed)
	}
	ev.Interface = text[:closeP]
	text = text[closeP+2:]
	text = strings.TrimPrefix(text, "(L2) ")
	comma := strings.Index(text, ", ")
	dir := text
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
		return nil, fmt.Errorf("%w: bad direction %q", ErrMalformed, dir)
	}
	return ev, nil
}

func refParseIfaceText(ev *LinkEvent, text, prefix string) (*LinkEvent, error) {
	if !strings.HasPrefix(text, prefix) {
		return nil, fmt.Errorf("%w: %q", ErrMalformed, text)
	}
	text = text[len(prefix):]
	const sep = ", changed state to "
	i := strings.Index(text, sep)
	if i < 0 {
		return nil, fmt.Errorf("%w: missing state clause", ErrMalformed)
	}
	ev.Interface = text[:i]
	switch text[i+len(sep):] {
	case "up":
		ev.Up = true
	case "down":
		ev.Up = false
	default:
		return nil, fmt.Errorf("%w: bad direction %q", ErrMalformed, text[i+len(sep):])
	}
	return ev, nil
}
