package netsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"netfail/internal/trace"
)

func TestLSPLogRoundTrip(t *testing.T) {
	log := []CapturedLSP{
		{Time: time.UnixMilli(1000).UTC(), Data: []byte{0x83, 0x1b, 0x01}},
		{Time: time.UnixMilli(2500).UTC(), Data: []byte{0xde, 0xad, 0xbe, 0xef}},
	}
	var buf bytes.Buffer
	if err := WriteLSPLog(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLSPLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if !got[i].Time.Equal(log[i].Time) || !bytes.Equal(got[i].Data, log[i].Data) {
			t.Errorf("record %d: %+v != %+v", i, got[i], log[i])
		}
	}
}

func TestReadLSPLogErrors(t *testing.T) {
	for _, in := range []string{
		"notanumber deadbeef",
		"1000 nothex!!",
		"1000",
	} {
		if _, err := ReadLSPLog(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("ReadLSPLog(%q) succeeded", in)
		}
	}
	// Comments and blanks are fine.
	got, err := ReadLSPLog(strings.NewReader("# header\n\n1000 83\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	camp := &Campaign{
		Config: Config{
			Seed:  42,
			Start: time.Date(2010, 10, 20, 0, 0, 0, 0, time.UTC),
			End:   time.Date(2011, 11, 11, 0, 0, 0, 0, time.UTC),
		},
		ListenerOffline: []trace.Interval{
			{Start: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2011, 1, 2, 0, 0, 0, 0, time.UTC)},
		},
		Counts: Counts{SyslogReceived: 7, LSPUpdates: 9},
	}
	var buf bytes.Buffer
	if err := camp.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 42 || !m.Start.Equal(camp.Config.Start) || !m.End.Equal(camp.Config.End) {
		t.Errorf("manifest = %+v", m)
	}
	if m.Counts.SyslogReceived != 7 || m.Counts.LSPUpdates != 9 {
		t.Errorf("counts = %+v", m.Counts)
	}
	off := m.Offline()
	if len(off) != 1 || !off[0].Start.Equal(camp.ListenerOffline[0].Start) {
		t.Errorf("offline = %+v", off)
	}
}

func TestReadManifestError(t *testing.T) {
	if _, err := ReadManifest(strings.NewReader("not json")); err == nil {
		t.Error("garbage manifest accepted")
	}
}

// TestReadManifestRejectsTrailingGarbage: anything but whitespace after
// the JSON object fails a strict read.
func TestReadManifestRejectsTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Campaign{Config: Config{Seed: 4}}).WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadManifest(strings.NewReader(buf.String() + "\n \n")); err != nil || m.Seed != 4 {
		t.Errorf("trailing whitespace: manifest %+v, err %v", m, err)
	}
	for _, tail := range []string{"GARBAGE{{{", "{}", `{"seed": 5}`} {
		if _, err := ReadManifest(strings.NewReader(buf.String() + tail)); err == nil {
			t.Errorf("strict reader accepted trailing %q", tail)
		}
	}
}

func TestGroundTruthFailuresConversion(t *testing.T) {
	camp := shortCampaign(t, 9)
	fs := camp.GroundTruthFailures()
	if len(fs) != len(camp.GroundTruth) {
		t.Fatalf("len = %d vs %d", len(fs), len(camp.GroundTruth))
	}
	for i := range fs {
		if fs[i].Link != camp.GroundTruth[i].Link || !fs[i].Start.Equal(camp.GroundTruth[i].Start) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}
