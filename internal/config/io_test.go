package config

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"netfail/internal/topo"
)

func TestSaveLoadDirRoundTrip(t *testing.T) {
	n, err := topo.Generate(topo.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := pull(n)
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

// TestLoadDirReadsLatestTextOnly: every pull is counted and keeps its
// capture time, but only each host's latest file — the one Mine parses
// — is read: older revisions carry no text, the latest file's and the
// repeats after it carry its text, and an archive holding unread text
// cannot be saved back.
func TestLoadDirReadsLatestTextOnly(t *testing.T) {
	a := GenerateArchive(topoNet(t), captureTime, captureTime.Add(28*24*time.Hour), 7*24*time.Hour)
	for _, revs := range a.Revisions {
		for i := range revs[:2] {
			revs[i].Text += "! week " + strconv.Itoa(i) + "\n"
		}
	}
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
		if len(got) != len(want) || len(got) != 4 {
			t.Fatalf("%s: %d revisions loaded, want %d (4)", h, len(got), len(want))
		}
		for i := range got {
			if !got[i].Captured.Equal(want[i].Captured) {
				t.Errorf("%s revision %d: captured %v, want %v", h, i, got[i].Captured, want[i].Captured)
			}
			read := i >= 2
			if read && got[i].Text != want[i].Text || !read && got[i].Text != "" {
				t.Errorf("%s revision %d (read %v): text of %d bytes", h, i, read, len(got[i].Text))
			}
		}
	}
	if err := back.SaveDir(t.TempDir()); err == nil {
		t.Error("SaveDir wrote revisions whose text was never read")
	}
}

// weeklyChanged is a weekly archive of the default network over the
// given weeks in which the first router's text changes from week
// changed on.
func weeklyChanged(t testing.TB, weeks, changed int) (*Archive, string) {
	t.Helper()
	n := topoNet(t)
	a := GenerateArchive(n, captureTime, captureTime.Add(time.Duration(weeks)*7*24*time.Hour), 7*24*time.Hour)
	host := n.RouterNames[0]
	for i := changed; i < weeks; i++ {
		a.Revisions[host][i].Text += "! changed\n"
	}
	return a, host
}

func stamp(t time.Time) string { return t.UTC().Format(revisionTimeLayout) }

// sameRevisions reports the first way got's hosts, capture times or
// latest texts differ from want's.
func sameRevisions(got, want *Archive) error {
	if g, w := strings.Join(got.Hosts(), " "), strings.Join(want.Hosts(), " "); g != w {
		return fmt.Errorf("hosts %s, want %s", g, w)
	}
	for _, h := range want.Hosts() {
		g, w := got.Revisions[h], want.Revisions[h]
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d revisions, want %d", h, len(g), len(w))
		}
		for i := range g {
			if !g[i].Captured.Equal(w[i].Captured) {
				return fmt.Errorf("%s revision %d: captured %v, want %v", h, i, g[i].Captured, w[i].Captured)
			}
		}
		if g[len(g)-1].Text != w[len(w)-1].Text {
			return fmt.Errorf("%s: latest text differs", h)
		}
	}
	return nil
}

// TestSaveDirLayout: a host's first pull and each pull that changed
// its text get a file of that text; every other pull is one PULLS
// line, sorted by host and then time; an archive without repeats has
// no PULLS.
func TestSaveDirLayout(t *testing.T) {
	a, changedHost := weeklyChanged(t, 5, 3)
	dir := t.TempDir()
	if err := a.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	var wantFiles []string
	var wantPulls strings.Builder
	for _, h := range a.Hosts() {
		for i, rev := range a.Revisions[h] {
			name := h + "_" + stamp(rev.Captured) + ".cfg"
			if i == 0 || h == changedHost && i == 3 {
				wantFiles = append(wantFiles, name)
				if text, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(text) != rev.Text {
					t.Errorf("%s: %d bytes (%v), want the revision's %d", name, len(text), err, len(rev.Text))
				}
				continue
			}
			wantPulls.WriteString(h + " " + stamp(rev.Captured) + "\n")
		}
	}
	got, _ := filepath.Glob(filepath.Join(dir, "*.cfg"))
	if len(got) != len(wantFiles) {
		t.Errorf("%d .cfg files, want %d", len(got), len(wantFiles))
	}
	if pulls, err := os.ReadFile(filepath.Join(dir, pullsName)); err != nil || string(pulls) != wantPulls.String() {
		t.Errorf("PULLS (%v) =\n%s\nwant\n%s", err, pulls, wantPulls.String())
	}

	once := t.TempDir()
	if err := pull(topoNet(t)).SaveDir(once); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(once, pullsName)); !os.IsNotExist(err) {
		t.Errorf("an archive without repeats wrote PULLS (%v)", err)
	}
}

func topoNet(t testing.TB) *topo.Network {
	t.Helper()
	n, err := topo.Generate(topo.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writePerPull writes a into dir as archives were written before
// PULLS: a file for every pull.
func writePerPull(t testing.TB, a *Archive, dir string) {
	t.Helper()
	for h, revs := range a.Revisions {
		for _, rev := range revs {
			if err := os.WriteFile(filepath.Join(dir, h+"_"+stamp(rev.Captured)+".cfg"), []byte(rev.Text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadDirPerPullLayout: a directory with a file for every pull —
// every archive written before PULLS existed — loads to the same
// revisions as the archive saved with PULLS.
func TestLoadDirPerPullLayout(t *testing.T) {
	a, _ := weeklyChanged(t, 5, 3)
	perPull := t.TempDir()
	writePerPull(t, a, perPull)
	saved := t.TempDir()
	if err := a.SaveDir(saved); err != nil {
		t.Fatal(err)
	}
	old, err := LoadDir(perPull)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(saved)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRevisions(old, a); err != nil {
		t.Errorf("per-pull directory: %v", err)
	}
	if err := sameRevisions(back, old); err != nil {
		t.Errorf("PULLS directory against the per-pull one: %v", err)
	}
	if back.FileCount() != old.FileCount() {
		t.Errorf("file count %d, per-pull %d", back.FileCount(), old.FileCount())
	}
}

// TestLoadDirPullsDamage: each kind of damaged PULLS line fails the
// load, naming PULLS, the line and the fault.
func TestLoadDirPullsDamage(t *testing.T) {
	a, host := weeklyChanged(t, 3, 3)
	dir := t.TempDir()
	if err := a.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	pulls, err := os.ReadFile(filepath.Join(dir, pullsName))
	if err != nil {
		t.Fatal(err)
	}
	next := strings.Count(string(pulls), "\n") + 1
	week := 7 * 24 * time.Hour
	for _, c := range []struct{ line, fault string }{
		{host + " 2010-10-20", "malformed line"},
		{host + "_" + stamp(captureTime.Add(3*week)), "malformed line"},
		{host + " " + stamp(captureTime.Add(3*week)) + ".5", "malformed line"},
		{"no-such-host " + stamp(captureTime.Add(3*week)), "host has no .cfg file"},
		{host + " " + stamp(captureTime.Add(-week)), "pull earlier than the host's first file"},
		{host + " " + stamp(captureTime), "pull named twice"},
		{host + " " + stamp(captureTime.Add(week)), "pull named twice"},
	} {
		if err := os.WriteFile(filepath.Join(dir, pullsName), append(slices.Clip(pulls), c.line+"\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDir(dir)
		if want := fmt.Sprintf("PULLS line %d: %s", next, c.fault); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("line %q: error %v, want one naming %q", c.line, err, want)
		}
	}
}

// TestSaveDirReplacesArchive: saving over a directory that holds a
// longer archive, saved or written a file per pull, leaves only the
// new one — no stale pull is counted, and no stale later revision is
// read as a host's latest.
func TestSaveDirReplacesArchive(t *testing.T) {
	long, _ := weeklyChanged(t, 5, 5)
	short, _ := weeklyChanged(t, 3, 1)
	for name, write := range map[string]func(dir string){
		"saved": func(dir string) {
			if err := long.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
		},
		"per-pull": func(dir string) { writePerPull(t, long, dir) },
	} {
		dir := t.TempDir()
		write(dir)
		if err := short.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		back, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("over a %s archive: %v", name, err)
		}
		if back.FileCount() != short.FileCount() {
			t.Errorf("over a %s archive: file count %d, want %d", name, back.FileCount(), short.FileCount())
		}
		if err := sameRevisions(back, short); err != nil {
			t.Errorf("over a %s archive: %v", name, err)
		}
	}
}

// FuzzLoadDirPulls: beside one .cfg file per host, a fuzzed PULLS
// either fails the load or loads an archive that SaveDir and LoadDir
// give back unchanged.
func FuzzLoadDirPulls(f *testing.F) {
	hosts := NewArchive()
	for _, h := range []string{"r1", "r2", "r3_x"} {
		hosts.Add(h, Revision{Captured: captureTime, Text: "hostname " + h + "\n"})
	}
	repeats := NewArchive()
	for h, revs := range hosts.Revisions {
		for i := 0; i < len(h)+1; i++ {
			repeats.Add(h, Revision{Captured: revs[0].Captured.Add(time.Duration(i) * 7 * 24 * time.Hour), Text: revs[0].Text})
		}
	}
	seed := f.TempDir()
	if err := repeats.SaveDir(seed); err != nil {
		f.Fatal(err)
	}
	pulls, err := os.ReadFile(filepath.Join(seed, pullsName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pulls)
	f.Add([]byte("r1 20101020-000001\nr1 20101020-000001\n"))
	f.Fuzz(func(t *testing.T, pulls []byte) {
		dir := t.TempDir()
		if err := hosts.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, pullsName), pulls, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := LoadDir(dir)
		if err != nil {
			return
		}
		again := t.TempDir()
		if err := a.SaveDir(again); err != nil {
			t.Fatalf("saving the loaded archive: %v", err)
		}
		back, err := LoadDir(again)
		if err != nil {
			t.Fatalf("loading the saved archive: %v", err)
		}
		if back.FileCount() != a.FileCount() {
			t.Fatalf("file count %d, want %d", back.FileCount(), a.FileCount())
		}
		for h, revs := range a.Revisions {
			for i, rev := range revs {
				if got := back.Revisions[h][i]; !got.Captured.Equal(rev.Captured) || got.Text != rev.Text {
					t.Fatalf("%s revision %d: %v %q, want %v %q", h, i, got.Captured, got.Text, rev.Captured, rev.Text)
				}
			}
		}
	})
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
