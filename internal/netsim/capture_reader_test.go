package netsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"netfail/internal/faultinject"
	"netfail/internal/salvage"
)

// referenceReadLSPLog is the LSP log reader as it was before payloads
// were decoded into an arena — a string per line, a slice per payload
// — kept as the oracle the arena reader must equal.
func referenceReadLSPLog(r io.Reader, strict bool) ([]CapturedLSP, *salvage.Report, error) {
	var out []CapturedLSP
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
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			if err := skip("missing separator", nil); err != nil {
				return nil, nil, err
			}
			continue
		}
		ms, err := strconv.ParseInt(line[:sp], 10, 64)
		if err != nil {
			if err := skip("bad timestamp", err); err != nil {
				return nil, nil, err
			}
			continue
		}
		data, err := hex.DecodeString(line[sp+1:])
		if err != nil {
			if err := skip("bad payload", err); err != nil {
				return nil, nil, err
			}
			continue
		}
		out = append(out, CapturedLSP{Time: time.UnixMilli(ms).UTC(), Data: data})
		rep.Kept++
	}
	return out, rep, sc.Err()
}

// seededLSPLog is the LSP log of a seeded week-long campaign.
func seededLSPLog(t testing.TB) ([]byte, int) {
	t.Helper()
	camp, err := Run(context.Background(), daysConfig(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLSPLog(&buf, camp.LSPLog); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(camp.LSPLog)
}

// TestReadLSPLogMatchesReference: on a seeded log and on logs damaged
// by faultinject, line by line and byte by byte, strict and lenient,
// the arena reader returns the reference reader's times, payloads,
// salvage report and error.
func TestReadLSPLogMatchesReference(t *testing.T) {
	clean, _ := seededLSPLog(t)
	logs := map[string][]byte{"clean": clean}
	for seed := int64(1); seed <= 3; seed++ {
		logs[fmt.Sprintf("lines-seed%d", seed)], _ = faultinject.Corrupt(clean, faultinject.Plan{Seed: seed, Rate: 0.01})
		logs[fmt.Sprintf("bytes-seed%d", seed)], _ = faultinject.CorruptBytes(clean, faultinject.Plan{Seed: seed, Rate: 0.01})
	}
	for name, log := range logs {
		for _, strict := range []bool{true, false} {
			got, gotRep, gotErr := readLSPLog(bytes.NewReader(log), strict)
			want, wantRep, wantErr := referenceReadLSPLog(bytes.NewReader(log), strict)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("%s strict=%v: error %v report %+v, want %v %+v", name, strict, gotErr, gotRep, wantErr, wantRep)
			}
			if len(got) != len(want) {
				t.Errorf("%s strict=%v: %d records, want %d", name, strict, len(got), len(want))
				continue
			}
			for i := range got {
				if !got[i].Time.Equal(want[i].Time) || got[i].Time.Location() != want[i].Time.Location() ||
					!bytes.Equal(got[i].Data, want[i].Data) || cap(got[i].Data) != len(got[i].Data) {
					t.Errorf("%s strict=%v: record %d = %v %x (cap %d), want %v %x",
						name, strict, i, got[i].Time, got[i].Data, cap(got[i].Data), want[i].Time, want[i].Data)
					break
				}
			}
		}
	}
}

// TestReadLSPLogAllocBudget pins the reader to a few allocations per
// capture rather than per line: the payloads share a doubling arena
// and the record slice doubles too, so a week's log of thousands of
// LSPs costs dozens. A string or a slice per line costs thousands.
func TestReadLSPLogAllocBudget(t *testing.T) {
	log, n := seededLSPLog(t)
	avg := testing.AllocsPerRun(5, func() {
		if _, err := ReadLSPLog(bytes.NewReader(log)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d LSPs: %.0f allocations", n, avg)
	if avg > 64 {
		t.Errorf("reading %d LSPs allocates %.0f times, budget is 64", n, avg)
	}
}

// TestWriteLSPLogAllocBudget pins the writer to its buffered writer and
// one reused line (2 measured) for 1,000 LSPs: a string per line, from
// fmt or a hex encoding, costs thousands.
func TestWriteLSPLogAllocBudget(t *testing.T) {
	camp, err := Run(context.Background(), daysConfig(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.LSPLog) < 1000 {
		t.Fatalf("a week holds %d LSPs, want at least 1,000", len(camp.LSPLog))
	}
	lsps := camp.LSPLog[:1000]
	avg := testing.AllocsPerRun(10, func() {
		if err := WriteLSPLog(io.Discard, lsps); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("1,000 LSPs: %.0f allocations", avg)
	if avg > 4 {
		t.Errorf("writing 1,000 LSPs allocates %.0f times, budget is 4", avg)
	}
}
