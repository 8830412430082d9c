package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"netfail/internal/capture"
	"netfail/internal/core"
	"netfail/internal/trace"
)

// Writer builds a store directory. The write protocol mirrors how an
// analysis run produces data:
//
//	w := store.NewWriter(dir)
//	w.SetSeed(seed)
//	w.StartMessageSegment()          // once per capture shard
//	w.AppendMessage(...)             // streamed during extraction
//	...
//	w.WriteAnalysis(analysis, configFiles, isisUpdates)
//	w.Finish()                       // writes the manifest last
//
// Messages stream through bounded segment writers as the extraction
// reads them, so building a store adds no RAM ceiling; failures and
// transitions are written in one pass from the finished analysis. The
// manifest is written last, atomically — a crash mid-build leaves a
// directory without a manifest, which readers reject, never a
// plausible half store.
//
// Writer is not safe for concurrent use.
type Writer struct {
	dir  string
	man  Manifest
	seed int64

	hosts   []string
	hostIdx map[string]uint32

	msg      *capture.SegmentWriter
	msgPost  map[uint32][]int64
	msgMaxMs int64
	rec      []byte // reused record-encode buffer
	err      error  // sticky: the first message the store refused

	analysisDone bool
}

// NewWriter creates (or truncates into) a store directory.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Writer{dir: dir, hostIdx: make(map[string]uint32)}, nil
}

// SetSeed records the campaign seed in the manifest.
func (w *Writer) SetSeed(seed int64) { w.seed = seed }

// StartMessageSegment rolls to the next numbered message segment. One
// segment per capture shard keeps each segment's frame timestamps
// non-decreasing (shards cover disjoint domains with overlapping
// clocks), which is the sparse-index contract.
func (w *Writer) StartMessageSegment() error {
	if err := w.finishMessageSegment(); err != nil {
		return err
	}
	n := len(w.man.Messages)
	sw, err := capture.CreateSegmentFile(w.dir, MessageSegmentName(n), MessageIndexName(n))
	if err != nil {
		return err
	}
	w.msg = sw
	w.msgPost = make(map[uint32][]int64)
	w.man.Messages = append(w.man.Messages, MessageSegmentMeta{Name: MessageSegmentName(n)})
	return nil
}

// AppendMessage frames one raw syslog line into the current message
// segment (starting segment 0 implicitly if none is open), interning
// the host into the catalog and posting the record under it. The first
// error is sticky: every later append and Finish return it, so a store
// that refused a message is never finished.
func (w *Writer) AppendMessage(tsMs int64, host string, line []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.msg == nil {
		if w.err = w.StartMessageSegment(); w.err != nil {
			return w.err
		}
	}
	h, ok := w.hostIdx[host]
	if !ok {
		h = uint32(len(w.hosts))
		w.hosts = append(w.hosts, host)
		w.hostIdx[host] = h
	}
	w.rec = appendMessageRecord(w.rec[:0], h, line)
	off, err := w.msg.Append(tsMs, w.rec)
	if w.err = err; err != nil {
		return err
	}
	w.msgPost[h] = append(w.msgPost[h], off)
	return nil
}

// finishMessageSegment closes the open message segment, writing its
// postings and recording its metadata.
func (w *Writer) finishMessageSegment() error {
	if w.msg == nil {
		return nil
	}
	n := len(w.man.Messages) - 1
	if err := w.msg.Finish(); err != nil {
		return err
	}
	meta := &w.man.Messages[n]
	meta.Records = w.msg.Records()
	meta.FirstMs, meta.LastMs = w.msg.Span()
	if err := writePostings(filepath.Join(w.dir, MessagePostingsName(n)), w.msgPost); err != nil {
		return err
	}
	w.msg, w.msgPost = nil, nil
	return nil
}

// WriteAnalysis writes the failure and transition segments (with
// their postings) from a finished analysis and fills the manifest:
// catalogs, parameters, and the precomputed tables. ConfigFiles and
// isisUpdates are the campaign-level counts Table 1 needs.
func (w *Writer) WriteAnalysis(a *core.Analysis, configFiles, isisUpdates int) error {
	t := a.Tables(configFiles, isisUpdates)
	return w.WriteAnalysisTables(a, &t)
}

// WriteAnalysisTables is WriteAnalysis with the analysis's tables
// already computed, Table 1 carrying the campaign-level counts.
func (w *Writer) WriteAnalysisTables(a *core.Analysis, t *core.Tables) error {
	if w.analysisDone {
		return fmt.Errorf("store: WriteAnalysis called twice")
	}
	w.analysisDone = true

	// Link catalog, in the analysis's deterministic link order.
	linkOrd := make(map[string]uint32, len(a.AnalyzedLinks))
	for _, l := range a.AnalyzedLinks {
		linkOrd[string(l.ID)] = uint32(len(w.man.Links))
		w.man.Links = append(w.man.Links, LinkEntry{ID: l.ID, Class: l.Class})
	}

	// Failures and transitions: each source or stream is one run,
	// merged into canonical order.
	fmeta, err := w.writeFailures([][]FailureRecord{
		failureRun(SourceSyslog, a.SyslogFailures),
		failureRun(SourceISIS, a.ISISFailures),
	}, linkOrd)
	if err != nil {
		return err
	}
	w.man.Failures = fmeta
	tmeta, err := w.writeTransitions([][]TransitionRecord{
		transitionRun(StreamSyslogAdj, a.SyslogAdj),
		transitionRun(StreamSyslogPerRouter, a.SyslogPerRtr),
		transitionRun(StreamSyslogPhysical, a.SyslogPhysical),
		transitionRun(StreamISReach, a.ISReach),
		transitionRun(StreamIPReach, a.IPReach),
	}, linkOrd)
	if err != nil {
		return err
	}
	w.man.Transitions = tmeta

	// Campaign identity and parameters. The analysis input carries the
	// resolved defaults, so a query layer replaying flap or window
	// logic uses exactly the values the pipeline did.
	w.man.Start = a.In.Start
	w.man.End = a.In.End
	w.man.ListenerOffline = a.In.ListenerOffline
	w.man.ConfigFiles = t.Table1.ConfigFiles
	w.man.ISISUpdates = t.Table1.ISISUpdates
	w.man.Params = Params{
		Window:           a.In.Window,
		FlapGap:          a.In.FlapGap,
		MergeWindow:      a.In.MergeWindow,
		IncludeMultiLink: a.In.IncludeMultiLink,
	}
	w.man.Tables = Tables{
		Table1: t.Table1,
		Table2: t.Table2,
		Table3: t.Table3,
		Table4: t.Table4,
		Table5: t.Table5,
		Table6: t.Table6,
		Table7: t.Table7,
	}
	return nil
}

// failureRun files one source's failures as store records.
func failureRun(src Source, fs []trace.Failure) []FailureRecord {
	run := make([]FailureRecord, len(fs))
	for i, f := range fs {
		run[i] = FailureRecord{Source: src, Link: f.Link, Start: f.Start, End: f.End}
	}
	return run
}

// transitionRun files one stream's transitions as store records.
func transitionRun(st Stream, ts []trace.Transition) []TransitionRecord {
	run := make([]TransitionRecord, len(ts))
	for i, t := range ts {
		run[i] = TransitionRecord{Stream: st, Time: t.Time, Link: t.Link, Dir: t.Dir, Kind: t.Kind, Reporter: t.Reporter}
	}
	return run
}

// writeFailures merges the failure runs into failures.seg/.idx/.pst.
func (w *Writer) writeFailures(runs [][]FailureRecord, linkOrd map[string]uint32) (SegmentMeta, error) {
	sw, err := capture.CreateSegmentFile(w.dir, FailuresSegment, FailuresIndex)
	if err != nil {
		return SegmentMeta{}, err
	}
	post := make(map[uint32][]int64)
	var maxSpanMs int64
	err = mergeRuns(runs, compareFailureRecords, func(r *FailureRecord) error {
		link, ok := linkOrd[string(r.Link)]
		if !ok {
			return fmt.Errorf("store: failure on uncataloged link %q", r.Link)
		}
		w.rec = appendFailureRecord(w.rec[:0], r.Source, link, r.Start.UnixNano(), r.End.UnixNano())
		off, err := sw.Append(r.Start.UnixMilli(), w.rec)
		if err != nil {
			return err
		}
		if span := r.End.UnixMilli() - r.Start.UnixMilli(); span > maxSpanMs {
			maxSpanMs = span
		}
		post[link] = append(post[link], off)
		return nil
	})
	if err != nil {
		return SegmentMeta{}, err
	}
	if err := sw.Finish(); err != nil {
		return SegmentMeta{}, err
	}
	if err := writePostings(filepath.Join(w.dir, FailuresPostings), post); err != nil {
		return SegmentMeta{}, err
	}
	meta := SegmentMeta{Records: sw.Records(), MaxSpanMs: maxSpanMs + 1}
	meta.FirstMs, meta.LastMs = sw.Span()
	return meta, nil
}

// writeTransitions merges the transition runs into
// transitions.seg/.idx/.pst, interning reporters into the catalog in
// record order.
func (w *Writer) writeTransitions(runs [][]TransitionRecord, linkOrd map[string]uint32) (SegmentMeta, error) {
	sw, err := capture.CreateSegmentFile(w.dir, TransitionsSegment, TransitionsIndex)
	if err != nil {
		return SegmentMeta{}, err
	}
	post := make(map[uint32][]int64)
	repOrd := make(map[string]uint32)
	err = mergeRuns(runs, compareTransitionRecords, func(r *TransitionRecord) error {
		link, ok := linkOrd[string(r.Link)]
		if !ok {
			return fmt.Errorf("store: transition on uncataloged link %q", r.Link)
		}
		rep, ok := repOrd[r.Reporter]
		if !ok {
			rep = uint32(len(w.man.Reporters))
			w.man.Reporters = append(w.man.Reporters, r.Reporter)
			repOrd[r.Reporter] = rep
		}
		w.rec = appendTransitionRecord(w.rec[:0], r.Stream, r.Dir, r.Kind, link, rep, r.Time.UnixNano())
		off, err := sw.Append(r.Time.UnixMilli(), w.rec)
		if err != nil {
			return err
		}
		post[link] = append(post[link], off)
		return nil
	})
	if err != nil {
		return SegmentMeta{}, err
	}
	if err := sw.Finish(); err != nil {
		return SegmentMeta{}, err
	}
	if err := writePostings(filepath.Join(w.dir, TransitionsPostings), post); err != nil {
		return SegmentMeta{}, err
	}
	meta := SegmentMeta{Records: sw.Records()}
	meta.FirstMs, meta.LastMs = sw.Span()
	return meta, nil
}

// mergeRuns hands emit the records of runs in cmp order. Each run is sorted in place only if it is not already
// in order — the analysis's streams normally are — so the cost is a
// check and a merge rather than a sort. The store's comparators order
// on every stored field, so records that tie are identical and the
// merge emits exactly what sorting the concatenation would.
func mergeRuns[T any](runs [][]T, cmp func(a, b T) int, emit func(r *T) error) error {
	for _, run := range runs {
		if !slices.IsSortedFunc(run, cmp) {
			slices.SortFunc(run, cmp)
		}
	}
	for {
		best := -1
		for j, run := range runs {
			if len(run) > 0 && (best < 0 || cmp(run[0], runs[best][0]) < 0) {
				best = j
			}
		}
		if best < 0 {
			return nil
		}
		if err := emit(&runs[best][0]); err != nil {
			return err
		}
		runs[best] = runs[best][1:]
	}
}

// Finish closes any open message segment and writes the manifest.
// WriteAnalysis must have been called, and no append may have failed.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	if !w.analysisDone {
		return fmt.Errorf("store: Finish before WriteAnalysis")
	}
	if err := w.finishMessageSegment(); err != nil {
		return err
	}
	w.man.Format = FormatName
	w.man.Seed = w.seed
	w.man.Hosts = w.hosts
	if w.man.Links == nil {
		w.man.Links = []LinkEntry{}
	}
	return writeManifestFile(w.dir, &w.man)
}
