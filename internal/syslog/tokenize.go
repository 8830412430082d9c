package syslog

import (
	"bytes"
	"time"
)

// This file is the allocation-free core of the parser: a byte scanner
// that reads one wire-format line, writes its fixed-width fields into
// a Message and returns the variable ones as subslices of the line,
// which Tokenizer.ParseBytes then materializes through its intern
// tables.
//
// The scan reproduces the retired strings-based parser — which leaned
// on time.Parse, strconv.Atoi, strconv.ParseUint, and
// strings.TrimSpace — bit for bit, quirks included: case-insensitive
// month names, the "_2" optional day padding, one-or-two-digit hours,
// a bare fractional-second tail after the seconds field, signed PRI
// and fractional digits where strconv/atoi accepted a sign, and
// Unicode white space in the service-stamp region. The differential
// fuzz test (FuzzParseMatchesReference) holds the two parsers equal
// over corrupted corpora, so every quirk here is load-bearing.

// tokenize scans one wire-format line, writing the PRI, timestamp and
// sequence number into m and returning the hostname, mnemonic and
// text as subslices of line. On error m is partially written and must
// not be used.
func tokenize(line []byte, ref time.Time, m *Message) (host, mnem, text []byte, err error) {
	// <PRI>
	if len(line) < 3 || line[0] != '<' {
		return nil, nil, nil, errMissingPRI
	}
	end := bytes.IndexByte(line[:min(len(line), 5)], '>')
	if end < 0 {
		return nil, nil, nil, errBadPRI
	}
	pri, ok := parsePRI(line[1:end])
	if !ok || pri < 0 || pri > 191 {
		return nil, nil, nil, errBadPRI
	}
	m.Facility = Facility(pri / 8)
	m.Severity = Severity(pri % 8)
	rest := line[end+1:]

	// TIMESTAMP: fixed 15 chars "Mmm dd hh:mm:ss". The 16th byte is
	// skipped unvalidated, as the retired parser's rest[16:] did.
	if len(rest) < 16 {
		return nil, nil, nil, errTruncatedHeader
	}
	// The stamp stays in year 0 until the end: a service stamp may yet
	// replace it, and only the one that wins is placed in a year.
	stamp, ok := parseStamp(rest[:15], false)
	if !ok {
		return nil, nil, nil, errBadTimestamp
	}
	rest = rest[16:]

	// HOSTNAME
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, nil, nil, errMissingHostname
	}
	host, rest = rest[:sp], rest[sp+1:]

	// "seq: " tag.
	colon := bytes.Index(rest, []byte(": "))
	if colon < 0 {
		return nil, nil, nil, errMissingSeqTag
	}
	if m.Seq, ok = parseSeq(rest[:colon]); !ok {
		return nil, nil, nil, errBadSeq
	}
	rest = rest[colon+2:]

	// Optional high-resolution service timestamp before the mnemonic,
	// Cisco's "service timestamps" form "Mmm dd hh:mm:ss.mmm UTC".
	if len(rest) == 0 || rest[0] != '%' {
		pct := bytes.IndexByte(rest, '%')
		if pct < 0 {
			return nil, nil, nil, errMissingMnemonic
		}
		region := bytes.TrimSuffix(bytes.TrimSpace(rest[:pct]), []byte(":"))
		if hires, ok := parseStamp(bytes.TrimSuffix(region, []byte(" UTC")), true); ok {
			stamp = hires
		}
		rest = rest[pct:]
	}

	// %MNEMONIC: text
	colon = bytes.Index(rest, []byte(": "))
	if colon < 0 {
		return nil, nil, nil, errMissingMnemSep
	}
	m.Timestamp = resolveYear(stamp, ref)
	return host, rest[1:colon], rest[colon+2:], nil // rest[0] is always '%'
}

// parseStamp decodes "Jan _2 15:04:05" — with ".000" appended when
// withFrac is set — exactly as time.Parse does, over the full window:
// optional day padding, one-or-two-digit day and hour, fixed two-digit
// minute and second, time.Parse's bare fractional-second tail when the
// layout carries no fraction, and its "extra text" rejection of
// anything left over. The result lands in year 0 (a leap year, so
// Feb 29 is valid), to be placed by resolveYear.
func parseStamp(s []byte, withFrac bool) (time.Time, bool) {
	month, s, ok := parseMonth(s)
	if !ok {
		return time.Time{}, false
	}
	s, ok = skipSpaces(s)
	if !ok {
		return time.Time{}, false
	}
	// "_2": skip one optional pad space, then one or two digits.
	if len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	day, s, ok := getnum(s, false)
	if !ok {
		return time.Time{}, false
	}
	s, ok = skipSpaces(s)
	if !ok {
		return time.Time{}, false
	}
	hour, s, ok := getnum(s, false)
	if !ok || hour > 23 || len(s) == 0 || s[0] != ':' {
		return time.Time{}, false
	}
	s = s[1:]
	minute, s, ok := getnum(s, true)
	if !ok || minute > 59 || len(s) == 0 || s[0] != ':' {
		return time.Time{}, false
	}
	s = s[1:]
	sec, s, ok := getnum(s, true)
	if !ok || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	if withFrac {
		// ".000" demands a comma or period plus exactly three bytes,
		// parsed with atoi's sign tolerance (".+42" ≡ ".042").
		if len(s) < 4 || !commaOrPeriod(s[0]) {
			return time.Time{}, false
		}
		ns, ok := atoiSigned(s[1:4])
		if !ok || ns < 0 {
			return time.Time{}, false
		}
		nsec = ns * 1e6 // three digits given, scaled to nanoseconds
		s = s[4:]
	} else if len(s) >= 2 && commaOrPeriod(s[0]) && isDigit(s[1]) {
		// Fractional second in the input but not the layout:
		// time.Parse consumes it anyway.
		n := 2
		for n < len(s) && isDigit(s[n]) {
			n++
		}
		nb := min(n, 10) // at most nine fractional digits parse
		ns, ok := atoiSigned(s[1:nb])
		if !ok || ns < 0 {
			return time.Time{}, false
		}
		for i := nb; i < 10; i++ {
			ns *= 10
		}
		nsec = ns
		s = s[n:]
	}
	if len(s) != 0 { // "extra text"
		return time.Time{}, false
	}
	if day < 1 || day > daysInYear0[month-1] {
		return time.Time{}, false
	}
	return time.Date(0, time.Month(month), day, hour, minute, sec, nsec, time.UTC), true
}

// daysInYear0 is the month-length table for year 0, which the
// proleptic Gregorian calendar makes a leap year — time.Parse accepts
// "Feb 29" for exactly that reason.
var daysInYear0 = [12]int{31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// shortMonthNames mirrors the time package's table; lookup order
// matters only cosmetically (the names are prefix-free).
var shortMonthNames = [12]string{
	"Jan", "Feb", "Mar", "Apr", "May", "Jun",
	"Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
}

// parseMonth matches a three-letter month name with time.Parse's
// ASCII case folding.
func parseMonth(s []byte) (int, []byte, bool) {
	if len(s) >= 3 {
		for i, name := range &shortMonthNames {
			if matchFold(s, name) {
				return i + 1, s[3:], true
			}
		}
	}
	return 0, s, false
}

// matchFold reports whether s begins with name under time.Parse's
// folding: bytes equal, or both folding to the same lowercase ASCII
// letter.
func matchFold(s []byte, name string) bool {
	for i := 0; i < len(name); i++ {
		c1, c2 := s[i], name[i]
		if c1 != c2 {
			c1 |= 'a' - 'A'
			c2 |= 'a' - 'A'
			if c1 != c2 || c1 < 'a' || c1 > 'z' {
				return false
			}
		}
	}
	return true
}

// getnum reads a one-or-two-digit number (exactly two when fixed).
func getnum(s []byte, fixed bool) (int, []byte, bool) {
	if len(s) == 0 || !isDigit(s[0]) {
		return 0, s, false
	}
	if len(s) < 2 || !isDigit(s[1]) {
		if fixed {
			return 0, s, false
		}
		return int(s[0] - '0'), s[1:], true
	}
	return int(s[0]-'0')*10 + int(s[1]-'0'), s[2:], true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpaces replicates time.Parse's skip() for a one-space layout
// prefix: a non-space first byte fails, and otherwise every leading
// space is consumed — so " _2 " layouts absorb runs of spaces, and an
// already-empty value passes (the following field then rejects it).
func skipSpaces(s []byte) ([]byte, bool) {
	if len(s) > 0 && s[0] != ' ' {
		return s, false
	}
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	return s, true
}

func commaOrPeriod(c byte) bool { return c == '.' || c == ',' }

// parsePRI decodes the PRI digits with strconv.Atoi's semantics: an
// optional leading sign, then at least one digit and nothing else.
// The value is at most three bytes, so overflow cannot occur.
func parsePRI(s []byte) (int, bool) {
	if len(s) == 0 || len(s) == 1 && (s[0] == '+' || s[0] == '-') {
		return 0, false
	}
	return atoiSigned(s)
}

// parseSeq decodes the sequence tag with strconv.ParseUint(s, 10, 64)
// semantics: digits only, overflow is an error.
func parseSeq(s []byte) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	const cutoff = (1<<64-1)/10 + 1
	var n uint64
	for _, c := range s {
		c -= '0'
		if c > 9 || n >= cutoff {
			return 0, false
		}
		n1 := n*10 + uint64(c)
		if n1 < n {
			return 0, false
		}
		n = n1
	}
	return n, true
}

// atoiSigned applies the time package's internal atoi to at most nine
// bytes: optional sign, then digits only; the empty string is zero.
func atoiSigned(s []byte) (int, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	n := 0
	for _, c := range s {
		c -= '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
	}
	if neg {
		n = -n
	}
	return n, true
}
