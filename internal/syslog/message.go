package syslog

import (
	"strconv"
	"time"
)

// Severity is the RFC 3164 severity level.
type Severity int

// Standard severities.
const (
	Emergency Severity = iota
	Alert
	Critical
	Error
	Warning
	Notice
	Informational
	Debug
)

// Facility is the RFC 3164 facility code. Cisco routers default to
// Local7.
type Facility int

// Facilities used here.
const (
	Kern   Facility = 0
	Local7 Facility = 23
)

// Message is an RFC 3164 syslog message in the Cisco layout: PRI,
// header timestamp, hostname, a per-process sequence tag, and the
// %FACILITY-SEVERITY-MNEMONIC body, which for a link event is Link.
type Message struct {
	Facility Facility
	Severity Severity
	// Timestamp is the header timestamp. RFC 3164 timestamps carry
	// no year; ParseBytes resolves the year against a reference time.
	Timestamp time.Time
	// Hostname is the emitting router.
	Hostname string
	// Seq is Cisco's per-device message sequence number.
	Seq uint64
	// Mnemonic is the %FAC-SEV-NAME token, e.g. "CLNS-5-ADJCHANGE".
	// For a link event it names the template Link renders through.
	Mnemonic string
	// Link is the link-state event the message reports; the zero
	// LinkEvent (Type EventOther) is none.
	Link LinkEvent
	// Text is the body when it is not Link's canonical rendering:
	// another mnemonic's, or a link-state line's that does not parse
	// or would not render back byte for byte.
	Text string
}

// PRI returns the encoded priority value.
func (m *Message) PRI() int { return int(m.Facility)*8 + int(m.Severity) }

// Render serializes the message to its wire form.
func (m *Message) Render() string {
	return string(m.AppendRender(nil))
}

// AppendRender appends the message's wire form to dst and returns the
// extended slice: the one place a message's fields become text. The
// spill writer renders every message through one reused buffer, so a
// warm writer allocates nothing per line.
func (m *Message) AppendRender(dst []byte) []byte {
	dst = append(dst, '<')
	dst = strconv.AppendInt(dst, int64(m.PRI()), 10)
	dst = append(dst, '>')
	stamp := len(dst)
	dst = m.Timestamp.AppendFormat(dst, stampLayout)
	stampEnd := len(dst)
	dst = append(dst, ' ')
	dst = append(dst, m.Hostname...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, m.Seq, 10)
	dst = append(dst, ':', ' ')
	// The RFC 3164 stamp is formatted once and copied to its second place.
	dst = append(dst, dst[stamp:stampEnd]...)
	dst = append(dst, '.')
	ms := m.Timestamp.Nanosecond() / int(time.Millisecond)
	if ms < 100 {
		dst = append(dst, '0')
	}
	if ms < 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, int64(ms), 10)
	dst = append(dst, " UTC: %"...)
	dst = append(dst, m.Mnemonic...)
	dst = append(dst, ':', ' ')
	if m.Text != "" || m.Link.Type == EventOther {
		return append(dst, m.Text...)
	}
	return m.Link.appendText(dst, m.Mnemonic)
}

// appendText appends the event's canonical text in the template its
// mnemonic names.
func (ev *LinkEvent) appendText(dst []byte, mnemonic string) []byte {
	if ev.Type == EventISISAdj {
		xr := mnemonic == mnemXRAdj
		if !xr {
			dst = append(dst, "ISIS: "...)
		}
		dst = append(dst, "Adjacency to "...)
		dst = append(dst, ev.Neighbor...)
		dst = append(dst, " ("...)
		dst = append(dst, ev.Interface...)
		dst = append(dst, ") "...)
		if xr {
			dst = append(dst, "(L2) "...)
		}
		if ev.Up {
			dst = append(dst, "Up, "...)
		} else {
			dst = append(dst, "Down, "...)
		}
		return append(dst, ev.Reason...)
	}
	if ev.Type == EventLineProto {
		dst = append(dst, "Line protocol on "...)
	}
	dst = append(dst, "Interface "...)
	dst = append(dst, ev.Interface...)
	if ev.Up {
		return append(dst, ", changed state to up"...)
	}
	return append(dst, ", changed state to down"...)
}

// stampLayout is the RFC 3164 TIMESTAMP: "Mmm dd hh:mm:ss" with a
// space-padded day.
const stampLayout = "Jan _2 15:04:05"

// The link-state mnemonics: the constructors below emit them, and
// ParseBytes reads a line's text as the template its mnemonic names.
const (
	mnemIOSAdj    = "CLNS-5-ADJCHANGE"
	mnemXRAdj     = "ROUTING-ISIS-4-ADJCHANGE"
	mnemLink      = "LINK-3-UPDOWN"
	mnemLineProto = "LINEPROTO-5-UPDOWN"
)

// EventType classifies the link-state-relevant message types. The
// zero value is no link event.
type EventType int

const (
	// EventOther is any message this analysis does not interpret.
	EventOther EventType = iota
	// EventISISAdj is an IS-IS adjacency state change
	// (%CLNS-5-ADJCHANGE or %ROUTING-ISIS-4-ADJCHANGE): the "IS-IS"
	// syslog rows of Table 2.
	EventISISAdj
	// EventLink is a physical interface state change
	// (%LINK-3-UPDOWN): the "physical media" rows of Table 2.
	EventLink
	// EventLineProto is a line-protocol state change
	// (%LINEPROTO-5-UPDOWN), also counted as physical media.
	EventLineProto
)

// Dialect selects which vendor OS message format a router emits.
type Dialect int

const (
	// DialectIOS emits %CLNS-5-ADJCHANGE.
	DialectIOS Dialect = iota
	// DialectIOSXR emits %ROUTING-ISIS-4-ADJCHANGE.
	DialectIOSXR
)

// LinkEvent is the content of a link-state message beyond its
// header: what the analysis reads from every relevant syslog line.
type LinkEvent struct {
	Type EventType
	// Interface is the local interface named in the message.
	Interface string
	// Neighbor is the adjacency peer (hostname or system ID string)
	// for IS-IS messages; empty for physical-media messages.
	Neighbor string
	// Up is the direction of the transition.
	Up bool
	// Reason is the trailing explanation, e.g. "hold time expired".
	Reason string
}

// AdjChange builds an IS-IS adjacency change message in the given
// dialect. Like the two constructors below it fills fields and builds
// no text, and returns a value for the caller to store.
func AdjChange(dialect Dialect, host string, seq uint64, ts time.Time, neighbor, iface string, up bool, reason string) Message {
	m := Message{
		Facility:  Local7,
		Severity:  Notice,
		Timestamp: ts,
		Hostname:  host,
		Seq:       seq,
		Mnemonic:  mnemIOSAdj,
		Link:      LinkEvent{Type: EventISISAdj, Interface: iface, Neighbor: neighbor, Up: up, Reason: reason},
	}
	if dialect == DialectIOSXR {
		m.Severity, m.Mnemonic = Warning, mnemXRAdj
	}
	return m
}

// LinkUpDown builds a physical interface state change.
func LinkUpDown(host string, seq uint64, ts time.Time, iface string, up bool) Message {
	return Message{
		Facility:  Local7,
		Severity:  Error,
		Timestamp: ts,
		Hostname:  host,
		Seq:       seq,
		Mnemonic:  mnemLink,
		Link:      LinkEvent{Type: EventLink, Interface: iface, Up: up},
	}
}

// LineProtoUpDown builds a line-protocol state change.
func LineProtoUpDown(host string, seq uint64, ts time.Time, iface string, up bool) Message {
	return Message{
		Facility:  Local7,
		Severity:  Notice,
		Timestamp: ts,
		Hostname:  host,
		Seq:       seq,
		Mnemonic:  mnemLineProto,
		Link:      LinkEvent{Type: EventLineProto, Interface: iface, Up: up},
	}
}
