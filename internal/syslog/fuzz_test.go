package syslog

import (
	"testing"
	"time"
)

// FuzzParse: arbitrary lines must never panic the parser, and a line
// that parses renders to a line that parses to an equal Message — the
// fields are the message, and rendering loses none of them.
func FuzzParse(f *testing.F) {
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	f.Add(msgPtr(AdjChange(DialectIOS, "riv-core-01", 1, ref, "cpe-001", "Gi0/0/0", true, "new adjacency")).Render())
	f.Add(msgPtr(AdjChange(DialectIOSXR, "riv-core-01", 2, ref, "cpe-001", "Te0/1/0/3", false, "hold time expired")).Render())
	f.Add(msgPtr(LinkUpDown("cpe-001", 3, ref, "Gi0/0/0", false)).Render())
	f.Add(msgPtr(LineProtoUpDown("cpe-001", 4, ref, "Gi0/0/0", true)).Render())
	f.Add("<189>Oct 20 04:01:02 host 1: %SYS-5-CONFIG_I: Configured")
	f.Add("")
	f.Add("<>")

	f.Fuzz(func(t *testing.T, line string) {
		m, err := parseLine(line, ref)
		if err != nil {
			return
		}
		back, err := parseLine(m.Render(), ref)
		if err != nil {
			t.Fatalf("re-rendered message does not parse: %v (from %q)", err, line)
		}
		if *back != *m {
			t.Fatalf("%q parses to\n%+v, its rendering %q to\n%+v", line, *m, m.Render(), *back)
		}
	})
}
