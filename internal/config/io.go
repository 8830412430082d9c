package config

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// revisionTimeLayout names archived files "<host>_20101020-150405.cfg".
const revisionTimeLayout = "20060102-150405"

// pullsName lists the pulls that found their host's text unchanged.
const pullsName = "PULLS"

// SaveDir writes a "<host>_<stamp>.cfg" file for a host's first revision
// and each that changed its text and a "<host> <stamp>" PULLS line for
// every other, then removes each .cfg file and PULLS it did not write.
// A revision whose text LoadDir did not read cannot be saved.
func (a *Archive) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	written := make(map[string]bool)
	var pulls []byte
	for _, host := range a.Hosts() {
		revs := a.Revisions[host]
		for i, rev := range revs {
			stamp := rev.Captured.UTC().Format(revisionTimeLayout)
			name := host + "_" + stamp + ".cfg"
			if rev.unread {
				return fmt.Errorf("config: %s: text not loaded (LoadDir reads each host's latest file only)", name)
			}
			if i > 0 && rev.Text == revs[i-1].Text {
				pulls = append(append(append(append(pulls, host...), ' '), stamp...), '\n')
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(rev.Text), 0o644); err != nil {
				return fmt.Errorf("config: %w", err)
			}
			written[name] = true
		}
	}
	if len(pulls) > 0 {
		if err := os.WriteFile(filepath.Join(dir, pullsName), pulls, 0o644); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		if name := e.Name(); err == nil && !e.IsDir() && !written[name] && (strings.HasSuffix(name, ".cfg") || name == pullsName && len(pulls) == 0) {
			err = os.Remove(filepath.Join(dir, name))
		}
	}
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// LoadDir reads an archive written by SaveDir, or a file per pull: a
// host's revisions are its .cfg files and PULLS lines. Only its latest
// file's text is read — the one Mine parses — and given to the
// revisions from that file on; older ones carry Captured and no Text.
func LoadDir(dir string) (*Archive, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	// Until the texts are read, a file's revision holds its name as Text.
	a, pulls := NewArchive(), false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".cfg") {
			pulls = pulls || name == pullsName && !e.IsDir()
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
		a.Add(base[:us], Revision{Captured: captured.UTC(), Text: name})
	}
	if pulls {
		if err := readPulls(dir, a); err != nil {
			return nil, err
		}
	}
	for _, revs := range a.Revisions {
		last := len(revs) - 1
		for revs[last].Text == "" {
			last--
		}
		raw, err := os.ReadFile(filepath.Join(dir, revs[last].Text))
		if err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		text := string(raw)
		for i := range revs {
			revs[i] = Revision{Captured: revs[i].Captured, unread: i < last}
			if i >= last {
				revs[i].Text = text
			}
		}
	}
	return a, nil
}

// readPulls adds dir's PULLS lines to a: each a pull, named once, of a
// host with a file, no earlier than its first.
func readPulls(dir string, a *Archive) error {
	raw, err := os.ReadFile(filepath.Join(dir, pullsName))
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	for n, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		host, stamp, _ := strings.Cut(line, " ") // a hostname has no space
		captured, err := time.Parse(revisionTimeLayout, stamp)
		revs := a.Revisions[host]
		_, twice := slices.BinarySearchFunc(revs, captured, func(r Revision, t time.Time) int { return r.Captured.Compare(t) })
		fault := ""
		switch {
		case err != nil || len(stamp) != len(revisionTimeLayout): // no fraction, no 1-digit hour
			fault = "malformed line"
		case len(revs) == 0:
			fault = "host has no .cfg file"
		case captured.Before(revs[0].Captured):
			fault = "pull earlier than the host's first file"
		case twice:
			fault = "pull named twice"
		}
		if fault != "" {
			return fmt.Errorf("config: %s line %d: %s: %q", pullsName, n+1, fault, line)
		}
		a.Add(host, Revision{Captured: captured})
	}
	return nil
}
