package netsim

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"netfail/internal/salvage"
	"netfail/internal/trace"
)

// WriteLSPLog serializes an LSP capture, one record per line:
// "<unix_ms> <hex bytes>". The format deliberately resembles the
// MRT-style dumps IGP listeners produce.
func WriteLSPLog(w io.Writer, log []CapturedLSP) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	line := make([]byte, 0, 3<<10) // an LSP of up to 1,492 octets, in hex
	for _, c := range log {
		line = append(hex.AppendEncode(append(strconv.AppendInt(line[:0], c.Time.UnixMilli(), 10), ' '), c.Data), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLSPLog parses the WriteLSPLog format strictly: the first
// malformed line aborts the read with a line-accurate error.
func ReadLSPLog(r io.Reader) ([]CapturedLSP, error) {
	out, _, err := readLSPLog(r, true)
	return out, err
}

// ReadLSPLogLenient parses the WriteLSPLog format in salvage mode:
// malformed lines are skipped and accounted in the report instead of
// aborting the read. Bit-rotted payloads that still decode as hex are
// kept — the listener's decode-error accounting quarantines them
// downstream.
func ReadLSPLogLenient(r io.Reader) ([]CapturedLSP, *salvage.Report, error) {
	return readLSPLog(r, false)
}

// readLSPLog decodes every payload into one growing arena and hands
// out capacity-capped subslices of it, so a capture costs a handful of
// allocations rather than two per line.
func readLSPLog(r io.Reader, strict bool) ([]CapturedLSP, *salvage.Report, error) {
	var out []CapturedLSP
	var arena []byte
	rep := &salvage.Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	skip := func(reason string, detail error) error {
		if strict {
			if detail != nil {
				return fmt.Errorf("netsim: LSP log line %d: %s: %v", lineNo, reason, detail)
			}
			return fmt.Errorf("netsim: LSP log line %d: %s", lineNo, reason)
		}
		rep.Skip(lineNo, reason)
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			if err := skip("missing separator", nil); err != nil {
				return nil, nil, err
			}
			continue
		}
		ms, err := strconv.ParseInt(string(line[:sp]), 10, 64)
		if err != nil {
			if err := skip("bad timestamp", err); err != nil {
				return nil, nil, err
			}
			continue
		}
		hexData := line[sp+1:]
		size := len(hexData) / 2
		if cap(arena)-len(arena) < size {
			arena = make([]byte, 0, max(2*cap(arena), size, 4096))
		}
		start := len(arena)
		if _, err := hex.Decode(arena[start:start+size], hexData); err != nil {
			if err := skip("bad payload", err); err != nil {
				return nil, nil, err
			}
			continue
		}
		arena = arena[:start+size]
		out = append(out, CapturedLSP{Time: time.UnixMilli(ms).UTC(), Data: arena[start : start+size : start+size]})
		rep.Kept++
	}
	return out, rep, sc.Err()
}

// Manifest is the campaign metadata an analysis needs alongside the
// raw captures: the observation window and the listener-offline
// periods.
type Manifest struct {
	Seed            int64          `json:"seed"`
	Start           time.Time      `json:"start"`
	End             time.Time      `json:"end"`
	ListenerOffline []manifestSpan `json:"listener_offline"`
	Counts          Counts         `json:"counts"`
}

type manifestSpan struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// WriteManifest serializes the campaign metadata as JSON.
func (c *Campaign) WriteManifest(w io.Writer) error {
	m := Manifest{
		Seed:   c.Config.Seed,
		Start:  c.Config.Start,
		End:    c.Config.End,
		Counts: c.Counts,
	}
	for _, iv := range c.ListenerOffline {
		m.ListenerOffline = append(m.ListenerOffline, manifestSpan{Start: iv.Start, End: iv.End})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest parses a campaign manifest strictly.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := salvage.DecodeJSON(r, &m); err != nil {
		return nil, fmt.Errorf("netsim: manifest: %w", err)
	}
	return &m, nil
}

// Offline converts the manifest spans back to intervals.
func (m *Manifest) Offline() []trace.Interval {
	out := make([]trace.Interval, 0, len(m.ListenerOffline))
	for _, s := range m.ListenerOffline {
		out = append(out, trace.Interval{Start: s.Start, End: s.End})
	}
	return out
}

// GroundTruthFailures converts the campaign's ground truth to plain
// trace failures (for ticket generation).
func (c *Campaign) GroundTruthFailures() []trace.Failure {
	out := make([]trace.Failure, 0, len(c.GroundTruth))
	for _, f := range c.GroundTruth {
		out = append(out, trace.Failure{Link: f.Link, Start: f.Start, End: f.End})
	}
	return out
}
