package netfail

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/obs"
	"netfail/internal/pool"
	"netfail/internal/salvage"
	"netfail/internal/store"
	"netfail/internal/syslog"
)

// cancelStride bounds how many records a source feeds between
// cancellation checks: captures run to millions of records, and one
// record parses or decodes in about a microsecond, so 1024 keeps
// cancel latency around a millisecond while keeping the check off the
// per-record fast path.
const cancelStride = 1024

// CaptureSalvage names one campaign component's salvage report, as
// returned by ReadCampaignDir and AnalyzeCaptureDir.
type CaptureSalvage struct {
	// Name identifies the component, e.g. "syslog.log" or
	// "capture/shard-0000/syslog.seg".
	Name string
	// Report accounts the records kept and skipped.
	Report *salvage.Report
}

// Driver is the one analysis sequence — replay the listener, tokenize
// and extract shard by shard, compare, write the store — that every
// way of feeding netfail a campaign runs. Analyze feeds it an in-RAM
// Campaign and AnalyzeCaptureDir a flat or sharded campaign directory;
// netfail-serve pushes records through Syslog and LSP as it applies
// them and calls Finish for the study. A Driver runs one campaign and
// is not safe for concurrent use.
type Driver struct {
	study   *Study
	o       options
	lenient bool

	tok *syslog.Tokenizer
	lis *listener.Listener // until listen retires it into res
	res *ListenerResult
	ext *core.Extractor // nil without a Campaign: nothing to compare over
	sw  *store.Writer   // nil without WithStoreDir

	// rolling is the year reference for the next year-less RFC 3164
	// stamp: the latest time parsed so far in this shard. A fixed
	// reference would misdate lines more than six months from it.
	rolling time.Time
	// msg is the line being pushed, overwritten by the next: what the
	// driver retains of a shard is the extractor's resolved transitions,
	// never its messages.
	msg    syslog.Message
	lines  *salvage.Report // this shard's syslog records, by ordinal
	traces *core.SyslogTraces

	parsed, unparseable int // syslog lines pushed, across shards
	undecodable         int // LSP payloads pushed
	reports             []CaptureSalvage
}

// NewDriver starts one analysis that will complete study, which
// arrives with everything but the observations filled in: Campaign
// (seed, window, listener outages, counts, config archive, customer
// sites — its Syslog and LSPLog are not read here), Mined and Tickets.
// A study with no Campaign is a live capture with no declared window:
// there is nothing to compare over, so the driver counts syslog
// messages instead of retaining them and Finish refuses.
//
// Lenient tolerates undecodable LSP payloads and reports every
// component's salvage accounting, clean or not.
func NewDriver(study *Study, lenient bool, opts ...Option) (*Driver, error) {
	d := &Driver{
		study: study, o: fold(opts), lenient: lenient,
		tok:    syslog.NewTokenizer(),
		lis:    listener.New(study.Mined.Network),
		lines:  &salvage.Report{},
		traces: &core.SyslogTraces{},
	}
	if study.Campaign == nil {
		return d, nil
	}
	d.rolling = study.Campaign.Config.Start
	d.ext = core.NewExtractor(study.Mined.Network)
	if d.o.storeDir != "" {
		sw, err := store.NewWriter(d.o.storeDir)
		if err != nil {
			return nil, err
		}
		sw.SetSeed(study.Campaign.Config.Seed)
		d.sw = sw
	}
	return d, nil
}

// Syslog pushes one raw syslog line through the tokenizer and the
// extractor. A line that does not parse is counted and returned as an
// error wrapping syslog.ErrMalformed; it never stops the analysis, in
// either mode — the archive format is lossy by construction. Any other
// error is the store failing to take the line, and is fatal.
func (d *Driver) Syslog(line []byte) error {
	m := &d.msg
	if err := d.tok.ParseBytes(line, d.rolling, m); err != nil {
		d.unparseable++
		d.lines.Skip(d.lines.Kept+d.lines.Skipped+1, "unparseable syslog line")
		return err
	}
	if m.Timestamp.After(d.rolling) {
		d.rolling = m.Timestamp
	}
	d.parsed++
	d.lines.Kept++
	if d.ext == nil {
		return nil
	}
	d.ext.Add(m)
	return d.storeMessage(m, line)
}

// LSP pushes one captured PDU received at t. A payload that does not
// decode is counted, here as by the listener, and returned as an error.
func (d *Driver) LSP(t time.Time, data []byte) error {
	err := d.lis.Process(t, data)
	if err != nil {
		d.undecodable++
	}
	return err
}

// Summary accounts in one line for what has been pushed so far, before
// Finish or after it, completed or not. It reads counts and copies
// nothing: the line is its one allocation.
func (d *Driver) Summary() string {
	var lsps, is int
	if d.res != nil {
		lsps, is = d.res.LSPCount, len(d.res.ISTransitions)
	} else {
		lsps, is = d.lis.LSPCount(), d.lis.ISTransitionCount()
	}
	count := func(line []byte, n int, what string) []byte {
		return append(strconv.AppendInt(line, int64(n), 10), what...)
	}
	line := make([]byte, 0, 160) // on the stack: five counts fit
	line = count(line, d.parsed, " syslog messages (")
	line = count(line, d.unparseable, " unparseable), ")
	line = count(line, lsps, " LSPs, ")
	line = count(line, is, " IS transitions, ")
	line = count(line, d.undecodable, " decode errors")
	return string(line)
}

// Finish runs the comparison over everything pushed so far and
// returns the completed study, writing the store when one was asked
// for. What was pushed is the one shard left to merge; the driver takes
// no more records afterwards.
func (d *Driver) Finish(ctx context.Context) (*Study, error) {
	return d.run(d.o.instrument(ctx), []shard{{name: "syslog"}})
}

// storeMessage copies one parsed line into the store, if one is being
// written.
func (d *Driver) storeMessage(m *syslog.Message, line []byte) error {
	if d.sw == nil {
		return nil
	}
	return d.sw.AppendMessage(m.Timestamp.UnixMilli(), m.Hostname, line)
}

// canceled is the feed loops' cancellation check for record n.
func canceled(ctx context.Context, n int) error {
	if n%cancelStride != 0 {
		return nil
	}
	return ctx.Err()
}

// push is Syslog for a source reading a capture back: record n, whose
// failing to parse is the driver's to account and no reason to stop.
func (d *Driver) push(ctx context.Context, n int, line []byte) error {
	if err := canceled(ctx, n); err != nil {
		return err
	}
	if err := d.Syslog(line); !errors.Is(err, syslog.ErrMalformed) {
		return err
	}
	return nil
}

// replay is LSP for a source reading a capture back: record n of the
// named capture, fatal when it does not decode unless the driver is
// lenient.
func (d *Driver) replay(ctx context.Context, capture string, n int, t time.Time, data []byte) error {
	if err := canceled(ctx, n); err != nil {
		return err
	}
	if err := d.LSP(t, data); err != nil && !d.lenient {
		return fmt.Errorf("netfail: replaying %s: record %d at %s: %w",
			capture, n, t.UTC().Format(time.RFC3339), err)
	}
	return nil
}

// A shard is one link-disjoint slice of a campaign's observation
// streams, as a source hands it to the driver: an in-RAM Campaign's
// two slices, a flat directory's two logs, one capture shard's two
// segments. A nil feed has nothing to read — the records were pushed.
type shard struct {
	name string // labels the unparseable-line accounting
	// syslog pushes the shard's syslog stream; lsps replays its LSP
	// capture.
	syslog, lsps func(context.Context, *Driver) error
}

// memoryShards is an in-RAM Campaign: one shard, its messages fields
// the extractor reads as they are, rendered only for the store.
func memoryShards(camp *Campaign) []shard {
	return []shard{{
		name: "syslog",
		syslog: func(ctx context.Context, d *Driver) error {
			d.parsed += len(camp.Syslog)
			d.ext.Reserve(camp.Syslog)
			var line []byte
			for i, m := range camp.Syslog {
				if err := canceled(ctx, i); err != nil {
					return err
				}
				d.ext.Add(m)
				if d.sw == nil {
					continue
				}
				line = m.AppendRender(line[:0])
				if err := d.storeMessage(m, line); err != nil {
					return err
				}
			}
			return nil
		},
		lsps: func(ctx context.Context, d *Driver) error {
			for i, c := range camp.LSPLog {
				if err := d.replay(ctx, "LSP capture", i, c.Time, c.Data); err != nil {
					return err
				}
			}
			return nil
		},
	}}
}

// run is the analysis sequence. ctx carries cancellation for the
// sources' feed loops and the observability consumers the stages
// report to.
func (d *Driver) run(ctx context.Context, shards []shard) (*Study, error) {
	camp, ao := d.study.Campaign, d.o.ao
	if camp == nil {
		return nil, errors.New("netfail: no observation window to analyze over")
	}
	// Listen before extracting: the listener is where the garbage is
	// made, and it is cheapest made while nothing else is held.
	res, err := d.listen(ctx, shards)
	if err != nil {
		return nil, err
	}
	if err := d.extract(ctx, shards); err != nil {
		return nil, err
	}
	skipped := 0
	for _, r := range d.reports {
		skipped += r.Report.Skipped
	}
	obs.Add(ctx, "drops.salvage.records", int64(skipped))
	analysis, err := core.Analyze(ctx, core.Input{
		Network:          d.study.Mined.Network,
		Customers:        camp.Network.Customers,
		Traces:           d.traces,
		ISTransitions:    res.ISTransitions,
		IPTransitions:    res.IPTransitions,
		Start:            camp.Config.Start,
		End:              camp.Config.End,
		ListenerOffline:  camp.ListenerOffline,
		Tickets:          d.study.Tickets,
		IncludeMultiLink: ao.IncludeMultiLink,
		Parallelism:      ao.Parallelism,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("netfail: %w", err)
	}
	d.study.Listener, d.study.Analysis = res, analysis
	if d.sw == nil {
		return d.study, nil
	}
	ctx, done := obs.Stage(ctx, "store")
	defer done()
	// The store's tables are the report's: Study.Report reuses them.
	tables, err := d.study.Tables(ctx)
	if err != nil {
		return nil, err
	}
	if err := d.sw.WriteAnalysisTables(analysis, tables); err != nil {
		return nil, err
	}
	if err := d.sw.Finish(); err != nil {
		return nil, fmt.Errorf("netfail: writing store: %w", err)
	}
	obs.Add(ctx, "store.messages", int64(d.traces.Messages))
	obs.Add(ctx, "store.links", int64(len(analysis.AnalyzedLinks)))
	return d.study, nil
}

// extract pushes every shard's syslog stream through the extractor and
// merges it before the next is read, so residency is one shard's
// resolved transitions. Shards merge by concatenation in source order:
// domains are link-disjoint and no later stage re-sorts transitions,
// which keeps the report byte-identical at every Parallelism setting
// and across sources.
func (d *Driver) extract(ctx context.Context, shards []shard) error {
	ctx, done := obs.Stage(ctx, "extract")
	defer done()
	workers := pool.Resolve(d.o.ao.Parallelism)
	var scratch core.SyslogTraces
	for i, sh := range shards {
		// Timestamps restart at each shard boundary, and so does the
		// store's message segment (the first opens by itself).
		if i > 0 && d.sw != nil {
			if err := d.sw.StartMessageSegment(); err != nil {
				return err
			}
		}
		// The first shard merges straight into the result; later ones
		// go through the scratch and are appended.
		dst := d.traces
		if i > 0 {
			dst = &scratch
		}
		if err := d.extractShard(ctx, sh, workers, dst); err != nil {
			return err
		}
		if i > 0 {
			d.traces.Merge(&scratch)
		}
		if d.lenient || !d.lines.Clean() {
			d.reports = append(d.reports, CaptureSalvage{sh.name, d.lines})
		}
		d.lines = &salvage.Report{}
		d.rolling = d.study.Campaign.Config.Start
	}
	return nil
}

// extractShard pushes one shard's syslog stream — nothing, when its
// lines were pushed from outside — and merges what the extractor
// resolved of it into dst.
func (d *Driver) extractShard(ctx context.Context, sh shard, workers int, dst *core.SyslogTraces) error {
	ctx, done := obs.Stage(ctx, "extract-syslog")
	defer done()
	if sh.syslog != nil {
		if err := sh.syslog(ctx, d); err != nil {
			return err
		}
	}
	d.ext.Finish(ctx, core.DefaultMergeWindow, workers, dst)
	return ctx.Err()
}

// listen replays every shard's LSP capture through the one listener
// and accounts the result.
func (d *Driver) listen(ctx context.Context, shards []shard) (*ListenerResult, error) {
	ctx, done := obs.Stage(ctx, "listen")
	defer done()
	for _, sh := range shards {
		if sh.lsps != nil {
			if err := sh.lsps(ctx, d); err != nil {
				return nil, err
			}
		}
	}
	// The results are copies: drop the listener's own streams and its
	// fragment records before the comparison needs the memory.
	res := d.lis.Results()
	d.lis, d.res = nil, res
	if d.lenient && res.DecodeErrors > 0 {
		d.reports = append(d.reports, CaptureSalvage{"LSP payloads", &salvage.Report{
			Kept:    res.LSPCount + res.OtherPDUs,
			Skipped: res.DecodeErrors,
			Reasons: map[string]int{"undecodable LSP payload": res.DecodeErrors},
		}})
	}
	obs.Add(ctx, "listener.lsps", int64(res.LSPCount))
	obs.Add(ctx, "listener.stale", int64(res.StaleLSPs))
	obs.Add(ctx, "transitions.listener.is", int64(len(res.ISTransitions)))
	obs.Add(ctx, "transitions.listener.ip", int64(len(res.IPTransitions)))
	obs.Add(ctx, "drops.listener.decode_errors", int64(res.DecodeErrors))
	return res, nil
}
