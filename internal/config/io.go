package config

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// revisionTimeLayout names archived files "<host>_20101020-150405.cfg".
const revisionTimeLayout = "20060102-150405"

// SaveDir writes the archive to a directory, one file per revision.
// A revision LoadDir did not read the text of cannot be saved.
func (a *Archive) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	for host, revs := range a.Revisions {
		for _, rev := range revs {
			name := fmt.Sprintf("%s_%s.cfg", host, rev.Captured.UTC().Format(revisionTimeLayout))
			if rev.unread {
				return fmt.Errorf("config: %s: text not loaded (LoadDir reads each host's latest revision only)", name)
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(rev.Text), 0o644); err != nil {
				return fmt.Errorf("config: %w", err)
			}
		}
	}
	return nil
}

// LoadDir reads an archive previously written by SaveDir. Filenames
// encode the hostname and capture time. Every file is counted, but only
// each host's latest revision has its text read — the one Mine parses;
// older revisions carry Captured and no Text.
func LoadDir(dir string) (*Archive, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	type file struct {
		name, host string
		captured   time.Time
	}
	var files []file
	latest := make(map[string]int)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".cfg") {
			continue
		}
		base := strings.TrimSuffix(name, ".cfg")
		us := strings.LastIndexByte(base, '_')
		if us < 0 {
			return nil, fmt.Errorf("config: malformed archive filename %q", name)
		}
		captured, err := time.Parse(revisionTimeLayout, base[us+1:])
		if err != nil {
			return nil, fmt.Errorf("config: malformed archive filename %q: %v", name, err)
		}
		f := file{name: name, host: base[:us], captured: captured.UTC()}
		if j, ok := latest[f.host]; !ok || files[j].captured.Before(f.captured) {
			latest[f.host] = len(files)
		}
		files = append(files, f)
	}
	a := NewArchive()
	for i, f := range files {
		rev := Revision{Captured: f.captured, unread: latest[f.host] != i}
		if !rev.unread {
			text, err := os.ReadFile(filepath.Join(dir, f.name))
			if err != nil {
				return nil, fmt.Errorf("config: %w", err)
			}
			rev.Text = string(text)
		}
		a.Add(f.host, rev)
	}
	return a, nil
}
