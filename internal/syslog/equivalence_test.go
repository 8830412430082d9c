package syslog

// Differential tests pinning the []byte tokenizer to the retired
// strings-based parser (parse_reference_test.go): same accept/reject
// decision and identical Message on every input, clean or corrupted,
// with the reference's link event in Link and its text kept only where
// the retired constructors would not have written it.

import (
	"bytes"
	"testing"
	"time"

	"netfail/internal/faultinject"
)

// equivalenceRefs exercises year resolution mid-year and across the
// year boundary the study period straddles.
var equivalenceRefs = []time.Time{
	time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2011, 1, 1, 0, 0, 30, 0, time.UTC),
	time.Date(2010, 12, 31, 23, 59, 0, 0, time.UTC),
}

// checkParserEquivalence runs one line through the reference parser
// and the []byte tokenizer at each of refs, and fails on any
// divergence: accept/reject, or any Message field.
func checkParserEquivalence(t *testing.T, tk *Tokenizer, line string, refs []time.Time) {
	t.Helper()
	for _, ref := range refs {
		want, werr := refParse(line, ref)
		var m Message
		berr := tk.ParseBytes([]byte(line), ref, &m)
		if (werr == nil) != (berr == nil) {
			t.Fatalf("ParseBytes(%q, ref=%v): err = %v, reference err = %v", line, ref, berr, werr)
		}
		if werr != nil {
			continue
		}
		if ev, err := refParseLinkEvent(want); err == nil {
			want.Link = *ev
			if refLinkText(want.Mnemonic, ev) == want.Text {
				want.Text = ""
			}
		}
		if m != *want {
			t.Fatalf("ParseBytes(%q, ref=%v):\n got %+v\nwant %+v", line, ref, m, *want)
		}
	}
}

// equivalenceCorpus renders a varied capture: every message family
// and dialect, padded and unpadded days, a leap day, and timestamps
// hugging the year boundary.
func equivalenceCorpus() []byte {
	var msgs []*Message
	times := []time.Time{
		time.Date(2011, 3, 3, 4, 5, 6, 789e6, time.UTC),
		time.Date(2011, 3, 14, 23, 59, 59, 1e6, time.UTC),
		time.Date(2012, 2, 29, 12, 0, 0, 0, time.UTC),
		time.Date(2010, 12, 31, 23, 59, 58, 500e6, time.UTC),
		time.Date(2011, 1, 1, 0, 0, 2, 0, time.UTC),
	}
	hosts := []string{"riv-core-01", "lax-agg-02", "sac-hpr-03"}
	ifaces := []string{"TenGigE0/1/0/3", "GigabitEthernet0/0/1", "POS1/0"}
	seq := uint64(1)
	for _, ts := range times {
		for i, h := range hosts {
			ifc := ifaces[i%len(ifaces)]
			peer := hosts[(i+1)%len(hosts)]
			msgs = append(msgs,
				msgPtr(AdjChange(DialectIOS, h, seq, ts, peer, ifc, i%2 == 0, "hold time expired")),
				msgPtr(AdjChange(DialectIOSXR, h, seq+1, ts, peer, ifc, i%2 != 0, "new adjacency")),
				msgPtr(LinkUpDown(h, seq+2, ts, ifc, i%2 == 0)),
				msgPtr(LineProtoUpDown(h, seq+3, ts, ifc, i%2 != 0)),
			)
			seq += 4
		}
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, msgs); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestTokenizerMatchesReferenceOnCorruptedCorpus is the deterministic
// half of the differential pin: the rendered corpus is mangled by
// every faultinject mode over several seeds, and every resulting line
// must parse identically under the reference and the tokenizer.
func TestTokenizerMatchesReferenceOnCorruptedCorpus(t *testing.T) {
	clean := equivalenceCorpus()
	tk := NewTokenizer()
	for _, line := range bytes.Split(clean, []byte("\n")) {
		checkParserEquivalence(t, tk, string(line), equivalenceRefs)
	}
	for seed := int64(1); seed <= 8; seed++ {
		corrupted, faults := faultinject.Corrupt(clean, faultinject.Plan{Seed: seed, Rate: 0.5})
		if len(faults) == 0 {
			t.Fatalf("seed %d injected no faults", seed)
		}
		for _, line := range bytes.Split(corrupted, []byte("\n")) {
			checkParserEquivalence(t, tk, string(line), equivalenceRefs)
		}
	}
}

// FuzzParseMatchesReference lets the fuzzer hunt for divergence
// beyond the corpus: seeds cover every known quirk of the retired
// parser (time.Parse's case-folded months, optional day padding,
// short hours, bare and signed fractions, Unicode spaces; strconv's
// signed PRI and sequence overflow).
func FuzzParseMatchesReference(f *testing.F) {
	clean := equivalenceCorpus()
	for i, line := range bytes.Split(clean, []byte("\n")) {
		if i%5 == 0 { // a sample keeps the seed corpus small
			f.Add(string(line))
		}
	}
	corrupted, _ := faultinject.Corrupt(clean, faultinject.Plan{Seed: 42, Rate: 0.7})
	for i, line := range bytes.Split(corrupted, []byte("\n")) {
		if i%7 == 0 {
			f.Add(string(line))
		}
	}
	for _, quirk := range []string{
		"<189>mAr  3 04:05:06 h 1: %M-1-X: t",                          // case-folded month
		"<189>Mar 3 4:05:06 x h 1: %M-1-X: t",                          // unpadded day, short hour
		"<189>Mar  3 4:05:06.5 h 1: %M-1-X: t",                         // bare fraction in the 15-byte window
		"<189>Mar 13 04:05:06 h 1: Mar 13 04:05:06.+42 UTC: %M-1-X: t", // signed fraction
		"<189>Mar 13 04:05:06 h 1: Mar 13 04:05:06,042 UTC: %M-1-X: t", // comma fraction
		"<189>Feb 29 04:05:06 h 1: %M-1-X: t",                          // leap day in year 0
		"<+89>Mar 13 04:05:06 h 1: %M-1-X: t",                          // signed PRI
		"<189>Mar 13 04:05:06 h 18446744073709551616: %M-1-X: t",       // seq overflow
		"<189>Mar 13 04:05:06 h 1:  Mar 13 04:05:06.000 UTC :　%M-1-X: t",
		"<189>Dec 31 23:59:59 h 9: %LINK-3-UPDOWN: Interface POS1/0, changed state to down",
		"<189>Jan  1 00:00:01 h 9: %CLNS-5-ADJCHANGE: ISIS: Adjacency to p (i) Up",
	} {
		f.Add(quirk)
	}
	// Year resolution's edges: ±182 and ±183 days from a ref in
	// equivalenceRefs or yearEdgeRefs, ties between two candidates, and
	// Feb 29 resolved into leap and non-leap years.
	for _, edge := range []string{
		"<189>Aug 30 00:00:00 h 1: %M-1-X: t", // Mar 1 2011 +182 days; 2010's candidate -183
		"<189>Aug 31 00:00:00 h 1: %M-1-X: t", // Mar 1 2011 +183 days; 2010's candidate -182
		"<189>Aug 30 00:00:01 h 1: %M-1-X: t",
		"<189>Aug 31 23:59:59 h 1: %M-1-X: t",
		"<189>Mar  3 00:00:00 h 1: %M-1-X: t", // Sep 1 2011 -182 days
		"<189>Mar  2 00:00:00 h 1: %M-1-X: t", // Sep 1 2011 -183 days, tied with 2012's +183
		"<189>Mar  1 00:00:00 h 1: %M-1-X: t", // Sep 1 2011 +182 days into 2012
		"<189>Feb 29 00:00:00 h 1: %M-1-X: t", // leap 2012 from Sep 1 2011, Mar 1 elsewhere
		"<189>Feb 28 23:59:59 h 1: %M-1-X: t",
		"<189>Mar 13 04:05:06 h 1: Aug 30 00:00:00.000 UTC: %M-1-X: t",
		"<189>Aug 31 00:00:00 h 1: Feb 29 12:00:00.500 UTC: %M-1-X: t",
	} {
		f.Add(edge)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tk := NewTokenizer()
		checkParserEquivalence(t, tk, line, equivalenceRefs)
		checkParserEquivalence(t, tk, line, yearEdgeRefs)
	})
}

// yearEdgeRefs add what equivalenceRefs lack: a ref whose following
// year is a leap year, a leap-day ref, and a ref whose year in its own
// location is not its year in UTC.
var yearEdgeRefs = []time.Time{
	time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2012, 2, 29, 12, 0, 0, 0, time.UTC),
	time.Date(2013, 1, 1, 5, 0, 0, 0, time.FixedZone("+14", 14*3600)),
}

// TestResolveYearMatchesReference sweeps every day of year 0, at three
// clock times, against refs every five days over three years and in
// three locations, so each distance from ref that resolveYear's early
// return turns on — 182 days and 183 — occurs, and Feb 29 meets leap
// and non-leap candidate years.
func TestResolveYearMatchesReference(t *testing.T) {
	zones := []*time.Location{time.UTC, time.FixedZone("-08", -8*3600), time.FixedZone("+14", 14*3600)}
	first := time.Date(2010, 6, 1, 13, 37, 11, 0, time.UTC)
	for day := 0; day < 3*365; day += 5 {
		ref := first.AddDate(0, 0, day).In(zones[day%len(zones)])
		for d := 0; d < 366; d++ {
			for _, clock := range [3]time.Duration{0, 13*time.Hour + 37*time.Minute + 11*time.Second, 24*time.Hour - time.Millisecond} {
				stamp := time.Date(0, 1, 1+d, 0, 0, 0, 0, time.UTC).Add(clock)
				if got, want := resolveYear(stamp, ref), refResolveYear(stamp, ref); got != want {
					t.Fatalf("resolveYear(%v, %v) = %v, reference %v", stamp, ref, got, want)
				}
			}
		}
	}
}
