package netfail

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"netfail/internal/capture"
	"netfail/internal/config"
	"netfail/internal/netsim"
	"netfail/internal/obs"
	"netfail/internal/salvage"
	"netfail/internal/syslog"
	"netfail/internal/tickets"
	"netfail/internal/topo"
)

// The campaign directory layout. WriteCampaignMeta and ReadCampaignDir
// are the one writer and the one reader of the first four entries; a
// campaign carries its event streams either as the two flat logs or as
// a capture directory.
const (
	manifestName  = "manifest.json"  // window, counts, listener outages
	configsName   = "configs"        // router configuration archive
	ticketsName   = "tickets.json"   // trouble-ticket corpus
	customersName = "customers.json" // customer sites

	// SyslogLogName and LSPLogName are a flat campaign's event logs:
	// one rendered syslog line, one "<unix_ms> <hex LSP>" line each.
	SyslogLogName = "syslog.log"
	LSPLogName    = "lsps.log"
	// CaptureDirName is the subdirectory holding a spilled campaign's
	// sharded capture (shard segments plus capture manifest).
	CaptureDirName = "capture"
)

// IsCaptureCampaign reports whether a campaign directory carries a
// sharded spill capture instead of flat syslog.log/lsps.log files.
func IsCaptureCampaign(dir string) bool {
	return capture.IsCaptureDir(filepath.Join(dir, CaptureDirName))
}

// A CampaignFile is one file of a campaign directory and what writes
// it.
type CampaignFile struct {
	Name  string
	Write func(io.Writer) error
}

// WriteCampaignMeta writes everything a campaign directory holds
// except the event streams — manifest, ticket corpus (generated from
// the ground truth), customer sites, config archive — and then the
// given files beside them: a flat campaign's two event logs, exports.
func WriteCampaignMeta(dir string, camp *Campaign, files ...CampaignFile) error {
	corpus := ticketCorpus(camp)
	for _, file := range append([]CampaignFile{
		{manifestName, camp.WriteManifest},
		{ticketsName, func(w io.Writer) error { return tickets.WriteJSON(w, corpus) }},
		{customersName, func(w io.Writer) error { return topo.WriteCustomersJSON(w, camp.Network.Customers) }},
	}, files...) {
		f, err := os.Create(filepath.Join(dir, file.Name))
		if err != nil {
			return err
		}
		if err := file.Write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", file.Name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return camp.Archive.SaveDir(filepath.Join(dir, configsName))
}

// readJSON parses dir/name with read, the format's strict reader.
// When salvaging, garbage around the file's one JSON object is first
// skipped and accounted under name; corruption inside the object is
// read's to reject in both modes.
func readJSON[T any](dir, name string, salvaging bool, reports *[]CaptureSalvage, read func(io.Reader) (T, error)) (v T, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return v, err
	}
	if salvaging {
		obj, rep, ok := salvage.JSONObject(raw)
		if !ok {
			return v, fmt.Errorf("%s: no complete JSON object found", name)
		}
		*reports = append(*reports, CaptureSalvage{name, rep})
		raw = obj
	}
	return read(bytes.NewReader(raw))
}

// ReadCampaignDir loads a campaign directory into a study that has
// everything but the observations — what NewDriver takes — mining the
// config archive into the link namespace. In lenient mode garbage
// around the manifest's JSON object is skipped and accounted in the
// returned salvage entry; corruption inside any of the files is fatal
// in both modes.
func ReadCampaignDir(ctx context.Context, dir string, lenient bool) (*Study, []CaptureSalvage, error) {
	var reports []CaptureSalvage
	_, loaded := obs.Stage(ctx, "load")
	manifest, err := readJSON(dir, manifestName, lenient, &reports, netsim.ReadManifest)
	var archive *config.Archive
	if err == nil {
		archive, err = config.LoadDir(filepath.Join(dir, configsName))
	}
	var corpus []tickets.Ticket
	if err == nil {
		corpus, err = readJSON(dir, ticketsName, false, nil, tickets.ReadJSON)
	}
	var customers []*topo.Customer
	if err == nil {
		customers, err = readJSON(dir, customersName, false, nil, topo.ReadCustomersJSON)
	}
	loaded()
	if err != nil {
		return nil, nil, err
	}
	mined, err := mine(ctx, archive)
	if err != nil {
		return nil, nil, err
	}
	// The customer sites are operational knowledge the configs do not
	// carry: attach them to a copy of the mined network, as the
	// simulator's own topology carries them.
	network := *mined.Network
	network.Customers = customers
	return &Study{
		Campaign: &Campaign{
			Config:          SimulationConfig{Seed: manifest.Seed, Start: manifest.Start, End: manifest.End},
			Network:         &network,
			Archive:         archive,
			ListenerOffline: manifest.Offline(),
			Counts:          manifest.Counts,
		},
		Mined:   mined,
		Tickets: tickets.NewIndex(corpus),
	}, reports, nil
}

// mine runs the mine stage over a config archive.
func mine(ctx context.Context, archive *config.Archive) (*config.Mined, error) {
	ctx, done := obs.Stage(ctx, "mine")
	defer done()
	obs.Add(ctx, "mine.config_files", int64(archive.FileCount()))
	mined, err := config.Mine(archive)
	if err != nil {
		return nil, fmt.Errorf("netfail: mining configs: %w", err)
	}
	return mined, nil
}

// AnalyzeCaptureDir runs the analysis over a campaign directory
// written by netfail-sim or SimulateToCapture, reading the event
// streams from the sharded capture when the directory carries one and
// from the flat syslog.log/lsps.log otherwise. Either way the records
// go through the one Driver, so the report is byte-identical to
// Analyze's over the same campaign at every WithParallelism setting,
// and peak residency is one shard's resolved transitions, never its
// messages.
//
// In lenient mode damaged records are skipped and every component's
// accounting is returned; in strict mode the first damaged frame, LSP
// log line or undecodable LSP aborts with a record-accurate error, and
// the only entries returned are for unparseable (but intact) syslog
// lines, which are skipped and accounted in both modes.
func AnalyzeCaptureDir(ctx context.Context, dir string, lenient bool, opts ...Option) (*Study, []CaptureSalvage, error) {
	ctx, _ = resolve(ctx, opts)
	study, reports, err := ReadCampaignDir(ctx, dir, lenient)
	if err != nil {
		return nil, nil, err
	}
	d, err := NewDriver(study, lenient, opts...)
	if err != nil {
		return nil, nil, err
	}
	d.reports = reports
	shards := flatShards(dir)
	if IsCaptureCampaign(dir) {
		if shards, err = captureShards(d, dir); err != nil {
			return nil, nil, err
		}
	}
	if _, err := d.run(ctx, shards); err != nil {
		return nil, nil, err
	}
	return study, d.reports, nil
}

// flatShards is a campaign directory's syslog.log and lsps.log: one
// shard.
func flatShards(dir string) []shard {
	return []shard{{
		name: SyslogLogName,
		syslog: func(ctx context.Context, d *Driver) error {
			f, err := os.Open(filepath.Join(dir, SyslogLogName))
			if err != nil {
				return err
			}
			defer f.Close()
			return syslog.ScanLog(f, func(n int, line []byte) error { return d.push(ctx, n, line) })
		},
		lsps: func(ctx context.Context, d *Driver) error {
			f, err := os.Open(filepath.Join(dir, LSPLogName))
			if err != nil {
				return err
			}
			defer f.Close()
			var lsps []netsim.CapturedLSP
			if d.lenient {
				var rep *salvage.Report
				if lsps, rep, err = netsim.ReadLSPLogLenient(f); err == nil {
					d.reports = append(d.reports, CaptureSalvage{LSPLogName, rep})
				}
			} else {
				lsps, err = netsim.ReadLSPLog(f)
			}
			for i := 0; err == nil && i < len(lsps); i++ {
				err = d.replay(ctx, LSPLogName, i, lsps[i].Time, lsps[i].Data)
			}
			return err
		},
	}}
}

// captureShards is a spilled campaign's capture directory: one shard
// per topology domain, in the capture manifest's fixed order.
func captureShards(d *Driver, dir string) ([]shard, error) {
	cm, err := readJSON(dir, filepath.Join(CaptureDirName, capture.ManifestName), d.lenient, &d.reports, capture.ReadManifest)
	if err != nil {
		return nil, err
	}
	shards := make([]shard, len(cm.Shards))
	for i, sh := range cm.Shards {
		sys := filepath.Join(CaptureDirName, sh.Name, capture.SyslogSegment)
		lsp := filepath.Join(CaptureDirName, sh.Name, capture.LSPSegment)
		shards[i] = shard{
			name: sys + " lines",
			syslog: func(ctx context.Context, d *Driver) error {
				return d.segment(dir, sys, func(n int, _ int64, line []byte) error {
					return d.push(ctx, n, line)
				})
			},
			lsps: func(ctx context.Context, d *Driver) error {
				return d.segment(dir, lsp, func(n int, tsMs int64, rec []byte) error {
					return d.replay(ctx, lsp, n, time.UnixMilli(tsMs).UTC(), rec)
				})
			},
		}
	}
	return shards, nil
}

// segment streams the capture segment dir/name through push, record
// by record. Frame damage is governed by the segment reader's mode:
// the first bad frame aborts in strict, is resynced past and accounted
// in lenient.
func (d *Driver) segment(dir, name string, push func(n int, tsMs int64, rec []byte) error) error {
	sr, err := capture.OpenSegmentAt(filepath.Join(dir, name), capture.IndexEntry{}, 0, d.lenient)
	if err != nil {
		return err
	}
	defer sr.Close()
	for n := 0; ; n++ {
		tsMs, rec, err := sr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			err = push(n, tsMs, rec)
		}
		if err != nil {
			return err
		}
	}
	if d.lenient {
		d.reports = append(d.reports, CaptureSalvage{name, sr.Report()})
	}
	return nil
}
