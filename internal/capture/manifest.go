package capture

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netfail/internal/atomicfile"
)

// ManifestName is the capture manifest's file name inside the
// capture directory.
const ManifestName = "manifest.json"

// Shard describes one shard in the manifest: which topology domain
// it captures, how big that domain is, and what the shard holds.
type Shard struct {
	// Name is the shard's directory name inside the capture dir.
	Name string `json:"name"`
	// Domain labels the topology domain this shard captures.
	Domain string `json:"domain"`
	// Routers and Links size the domain.
	Routers int `json:"routers"`
	Links   int `json:"links"`
	// SyslogRecords and LSPRecords count the framed records.
	SyslogRecords int64 `json:"syslog_records"`
	LSPRecords    int64 `json:"lsp_records"`
	// FirstMs and LastMs span the shard's record timestamps
	// (millisecond unix time, 0 when the shard is empty).
	FirstMs int64 `json:"first_ms"`
	LastMs  int64 `json:"last_ms"`
}

// Manifest is the campaign-level capture metadata: the shard list in
// the fixed order the analysis consumes them.
type Manifest struct {
	Format string  `json:"format"`
	Shards []Shard `json:"shards"`
}

// Records totals the framed records across all shards.
func (m *Manifest) Records() (syslog, lsps int64) {
	for _, s := range m.Shards {
		syslog += s.SyslogRecords
		lsps += s.LSPRecords
	}
	return syslog, lsps
}

// writeManifestFile writes the manifest atomically into dir.
func writeManifestFile(dir string, m *Manifest) error {
	err := atomicfile.Write(dir, ManifestName, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("capture: manifest: %w", err)
	}
	return nil
}

// IsCaptureDir reports whether dir looks like a capture directory
// (has a manifest). netfail-analyze uses it to auto-detect sharded
// campaigns.
func IsCaptureDir(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil && !st.IsDir()
}

// ReadManifest parses a capture manifest strictly and validates the
// format tag.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("capture: manifest: %w", err)
	}
	if m.Format != FormatName {
		return nil, fmt.Errorf("capture: manifest: unknown format %q (want %q)", m.Format, FormatName)
	}
	return &m, nil
}

// ReadManifestDir reads dir's manifest strictly.
func ReadManifestDir(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	defer f.Close()
	return ReadManifest(f)
}
