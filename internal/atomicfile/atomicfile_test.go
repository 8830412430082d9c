package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesOrLeavesAlone(t *testing.T) {
	dir := t.TempDir()
	content := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, want := range []string{"first", "second"} {
		if err := Write(dir, "manifest.json", content(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}

	// A writer that fails halfway leaves the last good content and no
	// temporary file.
	torn := errors.New("disk full")
	err := Write(dir, "manifest.json", func(w io.Writer) error {
		io.WriteString(w, "thi")
		return torn
	})
	if !errors.Is(err, torn) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "manifest.json")); string(got) != "second" {
		t.Errorf("failed write left %q, want the previous content", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after a failed write, want the one file", len(entries))
	}
}
