package config

import (
	"testing"
	"time"

	"netfail/internal/topo"
)

func TestSaveLoadDirRoundTrip(t *testing.T) {
	n, err := topo.Generate(topo.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(n, captureTime)
	// Add an older revision for one router to exercise multi-revision.
	host := n.RouterNames[0]
	a.Add(host, Revision{Captured: captureTime.Add(-48 * time.Hour), Text: "hostname " + host + "\nrouter isis cenic\n net 49.0001.0000.0000.9999.00\n"})

	dir := t.TempDir()
	if err := a.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.FileCount() != a.FileCount() {
		t.Fatalf("file count %d, want %d", back.FileCount(), a.FileCount())
	}
	for _, h := range a.Hosts() {
		want, _ := a.Latest(h)
		got, ok := back.Latest(h)
		if !ok || got.Text != want.Text {
			t.Errorf("latest revision for %s differs", h)
		}
		if !got.Captured.Equal(want.Captured) {
			t.Errorf("capture time for %s: %v != %v", h, got.Captured, want.Captured)
		}
	}
	// Mining the loaded archive must still work.
	mined, err := Mine(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined.Network.Links) != len(n.Links) {
		t.Errorf("mined %d links, want %d", len(mined.Network.Links), len(n.Links))
	}
}

// TestLoadDirReadsLatestTextOnly: every file is counted and keeps its
// capture time, but only the latest revision per host — the one Mine
// parses — carries text, and an archive holding unread text cannot be
// saved back.
func TestLoadDirReadsLatestTextOnly(t *testing.T) {
	n, err := topo.Generate(topo.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := GenerateArchive(n, captureTime, captureTime.Add(21*24*time.Hour), 7*24*time.Hour)
	dir := t.TempDir()
	if err := a.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.FileCount() != a.FileCount() {
		t.Fatalf("file count %d, want %d", back.FileCount(), a.FileCount())
	}
	for _, h := range a.Hosts() {
		want, got := a.Revisions[h], back.Revisions[h]
		if len(got) != len(want) || len(got) < 2 {
			t.Fatalf("%s: %d revisions loaded, want %d (>= 2)", h, len(got), len(want))
		}
		for i := range got {
			if !got[i].Captured.Equal(want[i].Captured) {
				t.Errorf("%s revision %d: captured %v, want %v", h, i, got[i].Captured, want[i].Captured)
			}
			latest := i == len(got)-1
			if latest && got[i].Text != want[i].Text || !latest && got[i].Text != "" {
				t.Errorf("%s revision %d (latest %v): text of %d bytes", h, i, latest, len(got[i].Text))
			}
		}
	}
	if err := back.SaveDir(t.TempDir()); err == nil {
		t.Error("SaveDir wrote revisions whose text was never read")
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir("/nonexistent-dir-xyz"); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestGenerateArchiveWeekly(t *testing.T) {
	n, err := topo.Generate(topo.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	start := captureTime
	end := start.Add(28 * 24 * time.Hour)
	a := GenerateArchive(n, start, end, 7*24*time.Hour)
	// 4 weekly snapshots per router.
	if want := 4 * len(n.RouterNames); a.FileCount() != want {
		t.Errorf("files = %d, want %d", a.FileCount(), want)
	}
	if _, err := Mine(a); err != nil {
		t.Errorf("mining weekly archive: %v", err)
	}
}
