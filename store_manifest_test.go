package netfail

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netfail/internal/netsim"
	"netfail/internal/store"
	"netfail/internal/trace"
)

// TestStoreOpensPreChangeManifest: a manifest in the shape stores had
// before Table 4 carried counts only — each sanitize report with its
// kept failure list, plus the top-level sanitize summaries — still
// opens strictly, with the same Table 4.
func TestStoreOpensPreChangeManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	dir := t.TempDir()
	st, err := Run(context.Background(), smallConfig(2), WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Table(4)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, store.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	asJSON := func(v any) any {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var out any
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	topLevel := func(r trace.SanitizeReport) any {
		return map[string]any{
			"removed_offline": r.RemovedOffline, "long_checked": r.LongChecked,
			"long_removed": r.LongRemoved, "long_removed_time_ns": int64(r.LongRemovedTime),
		}
	}
	a := st.Analysis
	if len(a.SyslogSanitize.Kept) == 0 || len(a.ISISSanitize.Kept) == 0 {
		t.Fatal("campaign kept no failures: the old shape would carry no lists")
	}
	t4 := m["tables"].(map[string]any)["table4"].(map[string]any)
	t4["SyslogSanitize"] = asJSON(a.SyslogSanitize)
	t4["ISISSanitize"] = asJSON(a.ISISSanitize)
	m["syslog_sanitize"] = topLevel(a.SyslogSanitize)
	m["isis_sanitize"] = topLevel(a.ISISSanitize)
	old, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(`"Kept"`)) {
		t.Fatal("rewritten manifest carries no Kept list")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = store.Open(dir)
	if err != nil {
		t.Fatalf("strict open of a pre-change manifest: %v", err)
	}
	got, err := s.Table(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Table 4 from the pre-change manifest:\n%+v\nwant\n%+v", got, want)
	}
}

// TestStoreManifestSizeIndependentOfCampaignLength: the manifest holds
// catalogs, segment metadata and tables, never a per-failure list, so
// quadrupling the campaign leaves its size within 5 %. The campaigns
// are netfail-analyze -seed 1 -days 14 and -days 56; what grows between
// them is the reporter and host catalogs, which stop at the router
// count.
func TestStoreManifestSizeIndependentOfCampaignLength(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	manifest := func(days int) []byte {
		dir := t.TempDir()
		cfg := SimulationConfig{Seed: 1, Start: netsim.StudyStart, End: netsim.StudyStart.AddDate(0, 0, days)}
		if _, err := Run(context.Background(), cfg, WithStoreDir(dir)); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, store.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"Kept"`)) {
			t.Errorf("%d-day manifest carries a Kept list", days)
		}
		return raw
	}
	short, long := manifest(14), manifest(56)
	if r := float64(len(long)) / float64(len(short)); r < 1/1.05 || r > 1.05 {
		t.Errorf("manifest is %d bytes at 14 days and %d at 56 (ratio %.3f), want within 5 %%", len(short), len(long), r)
	}
}
