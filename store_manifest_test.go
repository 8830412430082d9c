package netfail

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"netfail/internal/capture"
	"netfail/internal/frame"
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

// rewriteAsOrdinals rewrites every postings file of the store at dir
// as a store written before postings named frames by offset had it:
// "NFPST1\n", then per key a frame of the key (u32le) and its records'
// ordinals in the segment (u32le each).
func rewriteAsOrdinals(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, e := range entries {
		pst, ok := strings.CutSuffix(e.Name(), ".pst")
		if !ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		post, _, err := store.ReadPostings(f, e.Name(), false)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		ord := map[int64]uint32{}
		sr, err := capture.OpenSegment(filepath.Join(dir, pst+".seg"))
		if err != nil {
			t.Fatal(err)
		}
		for n := uint32(0); ; n++ {
			if _, _, err := sr.Next(); err != nil {
				break
			}
			ord[sr.Offset()] = n
		}
		sr.Close()
		keys := make([]uint32, 0, len(post))
		for k := range post {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b := []byte("NFPST1\n")
		for _, k := range keys {
			start := len(b)
			b = binary.LittleEndian.AppendUint32(frame.Begin(b), k)
			for _, off := range post[k] {
				b = binary.LittleEndian.AppendUint32(b, ord[off])
			}
			frame.End(b, start)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		rewritten++
	}
	if rewritten < 3 {
		t.Fatalf("rewrote %d postings files, want the failures, transitions and message ones", rewritten)
	}
}

// TestStoreOpensPreChangePostings: a store written before postings
// named frames by offset holds NFPST1 ordinal lists. It opens strictly
// and leniently, with nothing to salvage, reads them as absent, and
// answers as the fresh store does: strictly every query the oracle
// asks, and leniently every link's and host's records, over the
// campaign and in a window.
func TestStoreOpensPreChangePostings(t *testing.T) {
	skipShort(t)
	ctx := context.Background()
	fx := campaign(t, 5, shortDays)
	fresh := row{src: "memory", par: 1}.run(t, fx).storeDir
	old := copyStore(t, fresh)
	rewriteAsOrdinals(t, old)
	checkStore(t, old, fx.reference(t, "memory"))

	want, err := store.Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.OpenLenient(old)
	if err != nil {
		t.Fatal(err)
	}
	man := want.Manifest()
	from := man.Start.Add(man.End.Sub(man.Start) / 3)
	windows := [][]store.Option{nil, {store.WithWindow(from, from.Add(5*24*time.Hour))}}
	for _, w := range windows {
		for _, l := range man.Links {
			opts := append([]store.Option{store.WithLink(l.ID)}, w...)
			g, gerr := got.Failures(ctx, opts...)
			x, xerr := want.Failures(ctx, opts...)
			if gerr != nil || xerr != nil || !reflect.DeepEqual(g, x) {
				t.Fatalf("failures on %s (%d options): %d records (%v), the fresh store %d (%v)", l.ID, len(opts), len(g), gerr, len(x), xerr)
			}
			gt, gerr := got.Transitions(ctx, opts...)
			xt, xerr := want.Transitions(ctx, opts...)
			if gerr != nil || xerr != nil || !reflect.DeepEqual(gt, xt) {
				t.Fatalf("transitions on %s (%d options): %d records (%v), the fresh store %d (%v)", l.ID, len(opts), len(gt), gerr, len(xt), xerr)
			}
		}
		for _, h := range man.Hosts {
			opts := append([]store.Option{store.WithHost(h)}, w...)
			g, gerr := got.Messages(ctx, opts...)
			x, xerr := want.Messages(ctx, opts...)
			if gerr != nil || xerr != nil || !reflect.DeepEqual(g, x) {
				t.Fatalf("messages from %s (%d options): %d records (%v), the fresh store %d (%v)", h, len(opts), len(g), gerr, len(x), xerr)
			}
		}
	}
	for _, cs := range got.Salvage() {
		if !cs.Report.Clean() {
			t.Errorf("%s: the pre-change store salvaged %s", cs.Name, cs.Report)
		}
	}
}
