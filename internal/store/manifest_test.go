package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Format:      FormatName,
		Seed:        42,
		Start:       time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:         time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC),
		ConfigFiles: 30,
		ISISUpdates: 1234,
		Params:      Params{Window: time.Minute, FlapGap: 10 * time.Minute},
		Links:       []LinkEntry{{ID: "core1:0-core2:0"}},
		Reporters:   []string{"core1", "core2"},
		Hosts:       []string{"core1"},
		Failures:    SegmentMeta{Records: 7, FirstMs: 100, LastMs: 900, MaxSpanMs: 50},
	}
}

func TestManifestWriteRead(t *testing.T) {
	dir := t.TempDir()
	if IsStoreDir(dir) {
		t.Error("empty directory claimed to be a store")
	}
	if err := writeManifestFile(dir, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	if !IsStoreDir(dir) {
		t.Error("directory with a manifest not recognized as a store")
	}

	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleManifest()
	if m.Seed != want.Seed || !m.Start.Equal(want.Start) || !m.End.Equal(want.End) ||
		m.Params.FlapGap != want.Params.FlapGap || m.Failures != want.Failures ||
		len(m.Links) != 1 || m.Links[0].ID != want.Links[0].ID {
		t.Errorf("round trip mismatch: %+v", m)
	}
}

func TestManifestRejectsUnknownFormat(t *testing.T) {
	m := sampleManifest()
	m.Format = "NFSTORE99"
	dir := t.TempDir()
	if err := writeManifestFile(dir, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Errorf("strict: got %v, want unknown-format error", err)
	}
	if _, err := OpenLenient(dir); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Errorf("lenient: got %v, want unknown-format error", err)
	}
}

func TestManifestLenientSkipsSurroundingGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifestFile(dir, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	dirty := append([]byte("#### torn write residue\x00\x01"), raw...)
	dirty = append(dirty, []byte("\x00trailing garbage")...)

	if _, err := ReadManifest(bytes.NewReader(dirty)); err == nil {
		t.Error("strict read accepted a manifest with leading garbage")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), dirty, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenLenient(dir)
	if err != nil {
		t.Fatalf("lenient open: %v", err)
	}
	if m := st.Manifest(); m.Seed != 42 || m.Format != FormatName {
		t.Errorf("salvaged manifest mismatch: %+v", m)
	}
	if salv := st.Salvage(); len(salv) == 0 || salv[0].Name != ManifestName || salv[0].Report.Clean() {
		t.Errorf("salvage does not account the dirty manifest: %+v", salv)
	}
}

func TestManifestCorruptionInsideIsFatal(t *testing.T) {
	// The manifest holds the catalogs every record references by
	// ordinal, so damage inside the object must stay fatal even in
	// salvage mode — a guessed catalog misattributes every record.
	dir := t.TempDir()
	if err := writeManifestFile(dir, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)/2]
	if _, err := ReadManifest(bytes.NewReader(torn)); err == nil {
		t.Error("strict read accepted a torn manifest")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLenient(dir); err == nil {
		t.Error("lenient open accepted a torn manifest")
	}
}
