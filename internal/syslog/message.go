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

// Message is a parsed RFC 3164 syslog message in the Cisco layout:
// PRI, header timestamp, hostname, a per-process sequence tag, and the
// %FACILITY-SEVERITY-MNEMONIC body.
type Message struct {
	Facility Facility
	Severity Severity
	// Timestamp is the header timestamp. RFC 3164 timestamps carry
	// no year; Parse resolves the year against a reference time.
	Timestamp time.Time
	// Hostname is the emitting router.
	Hostname string
	// Seq is Cisco's per-device message sequence number.
	Seq uint64
	// Mnemonic is the %FAC-SEV-NAME token, e.g. "CLNS-5-ADJCHANGE".
	Mnemonic string
	// Text is the free text after the mnemonic.
	Text string
}

// PRI returns the encoded priority value.
func (m *Message) PRI() int { return int(m.Facility)*8 + int(m.Severity) }

// Render serializes the message to its wire form.
func (m *Message) Render() string {
	return string(m.AppendRender(nil))
}

// AppendRender appends the message's wire form to dst and returns the
// extended slice. The spill writer renders every message through one
// reused buffer, so a warm writer allocates nothing per line.
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
	dst = strconv.AppendInt(dst, int64(m.Seq), 10)
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
	dst = append(dst, m.Text...)
	return dst
}

// stampLayout is the RFC 3164 TIMESTAMP: "Mmm dd hh:mm:ss" with a
// space-padded day.
const stampLayout = "Jan _2 15:04:05"

// EventType classifies the link-state-relevant message types.
type EventType int

const (
	// EventISISAdj is an IS-IS adjacency state change
	// (%CLNS-5-ADJCHANGE or %ROUTING-ISIS-4-ADJCHANGE): the "IS-IS"
	// syslog rows of Table 2.
	EventISISAdj EventType = iota
	// EventLink is a physical interface state change
	// (%LINK-3-UPDOWN): the "physical media" rows of Table 2.
	EventLink
	// EventLineProto is a line-protocol state change
	// (%LINEPROTO-5-UPDOWN), also counted as physical media.
	EventLineProto
	// EventOther is any message this analysis does not interpret.
	EventOther
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventISISAdj:
		return "isis-adj"
	case EventLink:
		return "link"
	case EventLineProto:
		return "lineproto"
	default:
		return "other"
	}
}

// Dialect selects which vendor OS message format a router emits.
type Dialect int

const (
	// DialectIOS emits %CLNS-5-ADJCHANGE.
	DialectIOS Dialect = iota
	// DialectIOSXR emits %ROUTING-ISIS-4-ADJCHANGE.
	DialectIOSXR
)

// LinkEvent is the structured content of a link-state message: what
// the analysis extracts from every relevant syslog line.
type LinkEvent struct {
	Type EventType
	// Router is the reporting hostname.
	Router string
	// Interface is the local interface named in the message.
	Interface string
	// Neighbor is the adjacency peer (hostname or system ID string)
	// for IS-IS messages; empty for physical-media messages.
	Neighbor string
	// Up is the direction of the transition.
	Up bool
	// Reason is the trailing explanation, e.g. "hold time expired".
	Reason string
	// Time is the message timestamp.
	Time time.Time
	// Seq is the device's message sequence number.
	Seq uint64
}

// AdjChange formats an IS-IS adjacency change message in the given
// dialect.
func AdjChange(dialect Dialect, host string, seq uint64, ts time.Time, neighbor, iface string, up bool, reason string) *Message {
	dir := "Down"
	if up {
		dir = "Up"
	}
	m := &Message{
		Facility:  Local7,
		Timestamp: ts,
		Hostname:  host,
		Seq:       seq,
	}
	switch dialect {
	case DialectIOSXR:
		m.Severity = Warning
		m.Mnemonic = "ROUTING-ISIS-4-ADJCHANGE"
		m.Text = "Adjacency to " + neighbor + " (" + iface + ") (L2) " + dir + ", " + reason
	default:
		m.Severity = Notice
		m.Mnemonic = "CLNS-5-ADJCHANGE"
		m.Text = "ISIS: Adjacency to " + neighbor + " (" + iface + ") " + dir + ", " + reason
	}
	return m
}

// LinkUpDown formats a physical interface state change.
func LinkUpDown(host string, seq uint64, ts time.Time, iface string, up bool) *Message {
	dir := "down"
	if up {
		dir = "up"
	}
	return &Message{
		Facility:  Local7,
		Severity:  Error,
		Timestamp: ts,
		Hostname:  host,
		Seq:       seq,
		Mnemonic:  "LINK-3-UPDOWN",
		Text:      "Interface " + iface + ", changed state to " + dir,
	}
}

// LineProtoUpDown formats a line-protocol state change.
func LineProtoUpDown(host string, seq uint64, ts time.Time, iface string, up bool) *Message {
	dir := "down"
	if up {
		dir = "up"
	}
	return &Message{
		Facility:  Local7,
		Severity:  Notice,
		Timestamp: ts,
		Hostname:  host,
		Seq:       seq,
		Mnemonic:  "LINEPROTO-5-UPDOWN",
		Text:      "Line protocol on Interface " + iface + ", changed state to " + dir,
	}
}
