package syslog

import "time"

// This file is the allocation-free core of the parser: a tokenizer
// generic over []byte and string that scans one wire-format line and
// records where the fields live, without materializing any of them.
// Parse/ParseInto instantiate it over string (substrings are free);
// Tokenizer.ParseBytes instantiates it over []byte and materializes
// the three string fields through the intern tables, so a warm parse
// of a datagram performs zero allocations.
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

// text is the tokenizer's input constraint: one implementation scans
// both the archive reader's byte slices and API-level strings.
type text interface{ ~[]byte | ~string }

// tokens is one scanned line: the fixed-width fields decoded, the
// variable ones as [lo,hi) offsets into the input.
type tokens struct {
	facility Facility
	severity Severity
	stamp    time.Time
	seq      uint64

	hostLo, hostHi int
	mnemLo, mnemHi int
	textLo         int // text runs to the end of the line
}

// tokenize scans one wire-format line into tok. On error tok is
// partially written and must not be used.
func tokenize[T text](line T, ref time.Time, tok *tokens) error {
	// <PRI>
	if len(line) < 3 || line[0] != '<' {
		return errMissingPRI
	}
	end := -1
	for i := 1; i < len(line) && i <= 4; i++ {
		if line[i] == '>' {
			end = i
			break
		}
	}
	if end < 0 {
		return errBadPRI
	}
	pri, ok := parsePRI(line[1:end])
	if !ok || pri < 0 || pri > 191 {
		return errBadPRI
	}
	tok.facility = Facility(pri / 8)
	tok.severity = Severity(pri % 8)
	rest := line[end+1:]
	off := end + 1 // offset of rest within line

	// TIMESTAMP: fixed 15 chars "Mmm dd hh:mm:ss". The 16th byte is
	// skipped unvalidated, as the retired parser's rest[16:] did.
	if len(rest) < 16 {
		return errTruncatedHeader
	}
	// The stamp stays in year 0 until the end: a service stamp may yet
	// replace it, and only the one that wins is placed in a year.
	stamp, ok := parseStamp(rest[:15], false)
	if !ok {
		return errBadTimestamp
	}
	rest = rest[16:]
	off += 16

	// HOSTNAME
	sp := indexByteIn(rest, ' ')
	if sp <= 0 {
		return errMissingHostname
	}
	tok.hostLo, tok.hostHi = off, off+sp
	rest = rest[sp+1:]
	off += sp + 1

	// "seq: " tag.
	colon := indexColonSpace(rest)
	if colon < 0 {
		return errMissingSeqTag
	}
	seq, ok := parseSeq(rest[:colon])
	if !ok {
		return errBadSeq
	}
	tok.seq = seq
	rest = rest[colon+2:]
	off += colon + 2

	// Optional high-resolution service timestamp before the mnemonic,
	// Cisco's "service timestamps" form "Mmm dd hh:mm:ss.mmm UTC".
	if len(rest) == 0 || rest[0] != '%' {
		pct := indexByteIn(rest, '%')
		if pct < 0 {
			return errMissingMnemonic
		}
		region := trimSuffix(trimSpace(rest[:pct]), ":")
		if hires, ok := parseStamp(trimSuffix(region, " UTC"), true); ok {
			stamp = hires
		}
		rest = rest[pct:]
		off += pct
	}

	// %MNEMONIC: text
	colon = indexColonSpace(rest)
	if colon < 0 || len(rest) < 2 {
		return errMissingMnemSep
	}
	tok.mnemLo, tok.mnemHi = off+1, off+colon // rest[0] is always '%'
	tok.textLo = off + colon + 2
	tok.stamp = resolveYear(stamp, ref)
	return nil
}

// parseStamp decodes "Jan _2 15:04:05" — with ".000" appended when
// withFrac is set — exactly as time.Parse does, over the full window:
// optional day padding, one-or-two-digit day and hour, fixed two-digit
// minute and second, time.Parse's bare fractional-second tail when the
// layout carries no fraction, and its "extra text" rejection of
// anything left over. The result lands in year 0 (a leap year, so
// Feb 29 is valid), to be placed by resolveYear.
func parseStamp[T text](s T, withFrac bool) (time.Time, bool) {
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
func parseMonth[T text](s T) (int, T, bool) {
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
func matchFold[T text](s T, name string) bool {
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
func getnum[T text](s T, fixed bool) (int, T, bool) {
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
func skipSpaces[T text](s T) (T, bool) {
	if len(s) > 0 && s[0] != ' ' {
		return s, false
	}
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	return s, true
}

func commaOrPeriod(c byte) bool { return c == '.' || c == ',' }

// parsePRI decodes the PRI digits with strconv.Atoi's fast-path
// semantics: an optional leading sign, then nothing but digits. The
// value is at most three digits, so overflow cannot occur.
func parsePRI[T text](s T) (int, bool) {
	if len(s) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '-' || s[0] == '+' {
		neg = s[0] == '-'
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	n := 0
	for ; i < len(s); i++ {
		c := s[i] - '0'
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

// parseSeq decodes the sequence tag with strconv.ParseUint(s, 10, 64)
// semantics: digits only, overflow is an error.
func parseSeq[T text](s T) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	const cutoff = (1<<64-1)/10 + 1
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
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
func atoiSigned[T text](s T) (int, bool) {
	neg := false
	i := 0
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		i = 1
	}
	n := 0
	for ; i < len(s); i++ {
		c := s[i] - '0'
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

// indexByteIn is bytes.IndexByte/strings.IndexByte over the generic
// input; the scanned regions are short (hostnames, tags), so the
// byte loop costs nothing measurable against the SIMD versions.
func indexByteIn[T text](s T, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// indexColonSpace finds the first ": " separator.
func indexColonSpace[T text](s T) int {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == ':' && s[i+1] == ' ' {
			return i
		}
	}
	return -1
}

// trimSuffix drops one trailing suffix if present.
func trimSuffix[T text](s T, suffix string) T {
	n := len(s) - len(suffix)
	if n < 0 {
		return s
	}
	for i := 0; i < len(suffix); i++ {
		if s[n+i] != suffix[i] {
			return s
		}
	}
	return s[:n]
}

// trimSpace is strings.TrimSpace over the generic input: maximal
// white-space trim from both ends, Unicode included.
func trimSpace[T text](s T) T {
	for {
		n := leadingSpaceLen(s)
		if n == 0 {
			break
		}
		s = s[n:]
	}
	for {
		n := trailingSpaceLen(s)
		if n == 0 {
			break
		}
		s = s[:len(s)-n]
	}
	return s
}

// leadingSpaceLen returns the byte length of the white-space rune at
// the front of s, or zero. Multi-byte spaces are matched by their
// exact UTF-8 encodings — the complete White_Space set above ASCII —
// which is equivalent to decode-then-unicode.IsSpace because any
// other sequence (including overlong encodings) either decodes to a
// non-space rune or to RuneError, and both stop the trim.
func leadingSpaceLen[T text](s T) int {
	if len(s) == 0 {
		return 0
	}
	c := s[0]
	if c < 0x80 {
		if isASCIISpace(c) {
			return 1
		}
		return 0
	}
	if len(s) >= 2 && c == 0xc2 && (s[1] == 0x85 || s[1] == 0xa0) {
		return 2 // U+0085 NEL, U+00A0 NBSP
	}
	if len(s) >= 3 && isSpace3(c, s[1], s[2]) {
		return 3
	}
	return 0
}

// trailingSpaceLen is leadingSpaceLen for the end of s. Matching the
// exact encodings backwards is equivalent to DecodeLastRune: a tail
// that byte-equals a space encoding always decodes as that rune, and
// any other tail decodes to a non-space rune or RuneError.
func trailingSpaceLen[T text](s T) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	c := s[n-1]
	if c < 0x80 {
		if isASCIISpace(c) {
			return 1
		}
		return 0
	}
	if n >= 2 && s[n-2] == 0xc2 && (c == 0x85 || c == 0xa0) {
		return 2
	}
	if n >= 3 && isSpace3(s[n-3], s[n-2], c) {
		return 3
	}
	return 0
}

func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// isSpace3 reports whether b0 b1 b2 encode a three-byte White_Space
// rune: U+1680, U+2000–U+200A, U+2028, U+2029, U+202F, U+205F, U+3000.
func isSpace3(b0, b1, b2 byte) bool {
	switch b0 {
	case 0xe1:
		return b1 == 0x9a && b2 == 0x80
	case 0xe2:
		if b1 == 0x80 {
			return (0x80 <= b2 && b2 <= 0x8a) || b2 == 0xa8 || b2 == 0xa9 || b2 == 0xaf
		}
		return b1 == 0x81 && b2 == 0x9f
	case 0xe3:
		return b1 == 0x80 && b2 == 0x80
	}
	return false
}
