package netsim

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"netfail/internal/faultinject"
	"netfail/internal/salvage"
)

func TestReadLSPLogLenientSalvages(t *testing.T) {
	in := strings.Join([]string{
		"1000 83aa",
		"not-a-record",
		"2000 83bb",
		"ZZZZ 83cc", // mangled timestamp
		"3000 83zz", // bad hex
		"4000",      // torn: no separator
		"5000 83dd",
	}, "\n") + "\n"
	got, rep, err := ReadLSPLogLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || rep.Kept != 3 {
		t.Fatalf("kept %d records (report %d), want 3", len(got), rep.Kept)
	}
	if rep.Skipped != 4 || rep.FirstBad != 2 || rep.LastBad != 6 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Reasons["bad timestamp"] != 1 || rep.Reasons["bad payload"] != 1 || rep.Reasons["missing separator"] != 2 {
		t.Errorf("reasons = %v", rep.Reasons)
	}
	if !got[2].Time.Equal(time.UnixMilli(5000).UTC()) {
		t.Errorf("last record = %+v", got[2])
	}
}

// The strict reader must fail on exactly the first malformed line.
func TestReadLSPLogStrictLineAccurate(t *testing.T) {
	in := "1000 83aa\nnot-a-record\n2000 83bb\n"
	_, err := ReadLSPLog(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict error = %v, want line 2", err)
	}
}

func TestReadLSPLogLenientOnInjectedCorruption(t *testing.T) {
	// A synthetic capture corrupted by faultinject must salvage: no
	// panic, kept+skipped covering every record, and strict mode
	// failing on the report's first bad line (when the first fault is
	// one the strict parser can see — hex bit flips may remain valid
	// hex and surface only at LSP decode).
	var clean bytes.Buffer
	for i := 0; i < 400; i++ {
		WriteLSPLog(&clean, []CapturedLSP{{Time: time.UnixMilli(int64(1000 + i)).UTC(), Data: []byte{0x83, byte(i)}}})
	}
	corrupted, faults := faultinject.Corrupt(clean.Bytes(), faultinject.Plan{Seed: 9, Rate: 0.05})
	if len(faults) == 0 {
		t.Fatal("no faults injected")
	}
	got, rep, err := ReadLSPLogLenient(bytes.NewReader(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != len(got) {
		t.Errorf("report kept %d, reader returned %d", rep.Kept, len(got))
	}
	if rep.Skipped == 0 {
		t.Error("corruption injected but nothing skipped")
	}
	if _, err := ReadLSPLog(bytes.NewReader(corrupted)); err == nil {
		t.Error("strict reader accepted a corrupted capture")
	}
}

// salvagedManifest reads leniently as the campaign reader composes it.
func salvagedManifest(raw string) (*Manifest, *salvage.Report, error) {
	obj, rep, ok := salvage.JSONObject([]byte(raw))
	if !ok {
		return nil, nil, errors.New("no complete JSON object found")
	}
	m, err := ReadManifest(bytes.NewReader(obj))
	return m, rep, err
}

func TestReadManifestLenientSkipsSurroundingGarbage(t *testing.T) {
	clean := `{
  "seed": 3,
  "start": "2010-10-01T00:00:00Z",
  "end": "2010-10-02T00:00:00Z",
  "listener_offline": [{"start": "2010-10-01T06:00:00Z", "end": "2010-10-01T07:00:00Z"}],
  "counts": {}
}
`
	dirty := "!!garbage deadbeef interleaved!!\n" + clean + "!!more garbage}{!!\n"
	m, rep, err := salvagedManifest(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 3 || !m.Start.Equal(time.Date(2010, 10, 1, 0, 0, 0, 0, time.UTC)) || len(m.ListenerOffline) != 1 {
		t.Errorf("manifest = %+v", m)
	}
	if rep.Kept != 1 || rep.Skipped != 2 {
		t.Errorf("report = %+v", rep)
	}
	if _, err := ReadManifest(strings.NewReader(dirty)); err == nil {
		t.Error("strict reader accepted a garbage-wrapped manifest")
	}
}

func TestReadManifestLenientRejectsCorruptObject(t *testing.T) {
	if _, _, err := salvagedManifest(`{"seed": ZZ}`); err == nil {
		t.Error("corruption inside the object must stay fatal")
	}
	if _, _, err := salvagedManifest("no json here"); err == nil {
		t.Error("missing object must stay fatal")
	}
	if _, _, err := salvagedManifest(`{"seed": 1`); err == nil {
		t.Error("unterminated object must stay fatal")
	}
}
