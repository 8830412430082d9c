package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"netfail/internal/atomicfile"
	"netfail/internal/core"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// LinkEntry is one link-catalog row: records reference links by their
// ordinal in this catalog.
type LinkEntry struct {
	ID    topo.LinkID    `json:"id"`
	Class topo.LinkClass `json:"class"`
}

// SegmentMeta describes one segment file.
type SegmentMeta struct {
	// Records counts the framed records.
	Records int64 `json:"records"`
	// FirstMs and LastMs span the segment's frame timestamps
	// (millisecond unix time, 0 when empty).
	FirstMs int64 `json:"first_ms"`
	LastMs  int64 `json:"last_ms"`
	// MaxSpanMs bounds how far a record's interval can extend past its
	// frame timestamp (failure durations); a window query seeks to
	// from−MaxSpanMs so failures that started before the window but
	// overlap it are not missed. Zero for point records.
	MaxSpanMs int64 `json:"max_span_ms,omitempty"`
}

// MessageSegmentMeta describes one numbered message segment.
type MessageSegmentMeta struct {
	// Name is the segment file name (messages-NNNN.seg).
	Name string `json:"name"`
	SegmentMeta
}

// Params records the analysis options the store was built with; a
// query layer answering flap or window questions must use the same
// values the pipeline did.
type Params struct {
	Window           time.Duration `json:"window_ns"`
	FlapGap          time.Duration `json:"flap_gap_ns"`
	MergeWindow      time.Duration `json:"merge_window_ns"`
	IncludeMultiLink bool          `json:"include_multi_link"`
}

// Tables holds the precomputed agreement tables — the paper's entire
// evaluation section, computed once at store-write time from the same
// Analysis the segments were written from.
type Tables struct {
	Table1 core.Table1 `json:"table1"`
	Table2 core.Table2 `json:"table2"`
	Table3 core.Table3 `json:"table3"`
	Table4 core.Table4 `json:"table4"`
	Table5 core.Table5 `json:"table5"`
	Table6 core.Table6 `json:"table6"`
	Table7 core.Table7 `json:"table7"`
}

// Table returns table n (1–7) or an error for an unknown number.
func (t *Tables) Table(n int) (any, error) {
	switch n {
	case 1:
		return t.Table1, nil
	case 2:
		return t.Table2, nil
	case 3:
		return t.Table3, nil
	case 4:
		return t.Table4, nil
	case 5:
		return t.Table5, nil
	case 6:
		return t.Table6, nil
	case 7:
		return t.Table7, nil
	}
	return nil, fmt.Errorf("store: no table %d (want 1-7)", n)
}

// Manifest ties a store directory together: format tag, campaign
// identity, analysis parameters, the catalogs records reference by
// ordinal, per-segment metadata, sanitize accounting, and the
// precomputed tables.
type Manifest struct {
	Format string `json:"format"`

	// Campaign identity.
	Seed            int64            `json:"seed"`
	Start           time.Time        `json:"start"`
	End             time.Time        `json:"end"`
	ListenerOffline []trace.Interval `json:"listener_offline,omitempty"`
	ConfigFiles     int              `json:"config_files"`
	ISISUpdates     int              `json:"isis_updates"`

	Params Params `json:"params"`

	// Catalogs: records name links, reporters, and hosts by ordinal.
	Links     []LinkEntry `json:"links"`
	Reporters []string    `json:"reporters"`
	Hosts     []string    `json:"hosts"`

	// Segment metadata.
	Failures    SegmentMeta          `json:"failures"`
	Transitions SegmentMeta          `json:"transitions"`
	Messages    []MessageSegmentMeta `json:"messages"`

	// Sanitization accounting carried over from the analysis (minus
	// the kept lists, which live in failures.seg).
	SyslogSanitize SanitizeCounts `json:"syslog_sanitize"`
	ISISSanitize   SanitizeCounts `json:"isis_sanitize"`

	Tables Tables `json:"tables"`
}

// SanitizeCounts is trace.SanitizeReport without the kept failure
// list (stored in failures.seg instead of duplicated here).
type SanitizeCounts struct {
	RemovedOffline  int           `json:"removed_offline"`
	LongChecked     int           `json:"long_checked"`
	LongRemoved     int           `json:"long_removed"`
	LongRemovedTime time.Duration `json:"long_removed_time_ns"`
}

// sanitizeCounts strips the kept list from a trace report.
func sanitizeCounts(r trace.SanitizeReport) SanitizeCounts {
	return SanitizeCounts{
		RemovedOffline:  r.RemovedOffline,
		LongChecked:     r.LongChecked,
		LongRemoved:     r.LongRemoved,
		LongRemovedTime: r.LongRemovedTime,
	}
}

// writeManifestFile writes the manifest atomically, so a crash
// mid-write never leaves a plausible half manifest — the same
// discipline as the capture manifest.
func writeManifestFile(dir string, m *Manifest) error {
	err := atomicfile.Write(dir, ManifestName, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// ReadManifest parses a store manifest strictly and validates the
// format tag.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Format != FormatName {
		return nil, fmt.Errorf("store: manifest: unknown format %q (want %q)", m.Format, FormatName)
	}
	return &m, nil
}

// IsStoreDir reports whether dir looks like a store directory.
func IsStoreDir(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil && !st.IsDir()
}
