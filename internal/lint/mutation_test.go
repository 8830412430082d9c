package lint_test

// The mutation table: one row per bug seeded into product code, and a
// runner that sorts each row the way the paper's Table 3 sorts a
// transition — seen by no check, by one, or by many. A check is the
// compiler, go vet, one netfail-lint analyzer, or one top-level test
// (under -race, a test that only the race detector fails).
//
// `make mutate` runs every row and rewrites the block between the
// markers in docs/static-analysis.md; tier-1 runs no mutation, only
// TestMutationRows, which holds every anchor to its code and the block
// to the table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netfail/internal/lint"
	"netfail/internal/lint/detclock"
	"netfail/internal/lint/droppederr"
	"netfail/internal/lint/lockguard"
)

// A mutation replaces anchor, which occurs exactly once in file
// (relative to the module root), with repl. Every row runs go vet and
// netfail-lint on the mutated package (go build ./... when vet fails)
// and go test on pkgs; a race row runs go test -race on them too.
type mutation struct {
	id, what     string
	file, anchor string
	repl         string
	race         bool
	pkgs         []string // go test patterns, relative to the module root
}

// The rows. D, C, G, T, E and L are the static-analysis matrix's
// (durations, contexts, goroutines, time, errors, locks); Q the
// daemon's drain deadline; P the differential table's properties; S
// the simulator's loss mechanism; X the store's postings; M, R, N, I,
// O and W the fast paths the retired reference copies checked (merge,
// report grid, listener, IPv4, LSP origination, LSP encoding); B the
// bootstrap's, which its reference copy still checks.
var mutations = []mutation{
	{id: "D1", what: "`DefaultWindow` declared `time.Duration = 10`", pkgs: []string{"./internal/core", "./internal/match"},
		file: "internal/match/match.go", anchor: "const DefaultWindow = 10 * time.Second", repl: "const DefaultWindow time.Duration = 10"},
	{id: "D2", what: "`DefaultFlapGap = 10 * time.Minute * time.Second`", pkgs: []string{"./internal/trace"},
		file: "internal/trace/flap.go", anchor: "const DefaultFlapGap = 10 * time.Minute", repl: "const DefaultFlapGap = 10 * time.Minute * time.Second"},
	{id: "D2b", what: "`in.Window = in.Window * time.Second` in `core.Analyze`", pkgs: []string{".", "./internal/core"},
		file: "internal/core/analysis.go", anchor: "in.Window = match.DefaultWindow", repl: "in.Window = match.DefaultWindow\n\t\tin.Window = in.Window * time.Second"},
	{id: "D3", what: "`Driver.extract` merges at window `60` (nanoseconds)", pkgs: []string{"."},
		file: "driver.go", anchor: "d.ext.Finish(ctx, core.DefaultMergeWindow, workers, dst)", repl: "d.ext.Finish(ctx, 60, workers, dst)"},
	{id: "D4", what: "`netfail-query serve` shutdown grace `5` (nanoseconds)", pkgs: []string{"./cmd/netfail-query"},
		file: "cmd/netfail-query/main.go", anchor: "context.WithTimeout(context.Background(), 5*time.Second)", repl: "context.WithTimeout(context.Background(), 5)"},
	{id: "D5", what: "`readHeaderTimeout = 5` (nanoseconds)", pkgs: []string{"./internal/api"},
		file: "internal/api/api.go", anchor: "readHeaderTimeout = 5 * time.Second", repl: "readHeaderTimeout = 5"},
	{id: "C1", what: "`Driver.Finish` runs under `context.Background()`, not its argument", pkgs: []string{"."},
		file: "driver.go", anchor: "return d.run(d.o.instrument(ctx), []shard{{name: \"syslog\"}})", repl: "return d.run(d.o.instrument(context.Background()), []shard{{name: \"syslog\"}})"},
	{id: "G1", what: "`udpSource.Run` watches `ctx.Done()` in a bare goroutine per restart", pkgs: []string{"./cmd/netfail-serve"},
		file: "cmd/netfail-serve/main.go", anchor: "stop := context.AfterFunc(ctx, func() { conn.Close() })\n\tdefer stop()", repl: "go func() { <-ctx.Done(); conn.Close() }()"},
	{id: "G2", what: "`Supervisor.supervise` sleeps out its restart backoff past cancellation", pkgs: []string{"./internal/serve"},
		file: "internal/serve/supervisor.go", anchor: "if backoff.SleepCtx(ctx, d) != nil {", repl: "if backoff.SleepCtx(context.Background(), d) != nil {"},
	{id: "G3", what: "`pool` never closes its task channel: every worker leaks", pkgs: []string{"./internal/pool", "./internal/core"},
		file: "internal/pool/ctx.go", anchor: "\tclose(tasks)\n", repl: "\n"},
	{id: "T1", what: "`rand.Float64()` (the global source) for the seeded stream", pkgs: []string{"./internal/netsim"},
		file: "internal/netsim/rng.go", anchor: "return r.Float64() < p", repl: "return rand.Float64() < p"},
	{id: "T2", what: "`time.Now()` for `h.ok(…)` in `Supervisor.supervise`", pkgs: []string{"./internal/serve"},
		file: "internal/serve/supervisor.go", anchor: "h.ok(s.clk.Now())", repl: "h.ok(time.Now())"},
	{id: "T3", what: "`time.Now()` stamps datagrams in `udpSource.Run`", pkgs: []string{"./cmd/netfail-serve"},
		file: "cmd/netfail-serve/main.go", anchor: "rec := serve.Record{Time: s.clk.Now(),", repl: "rec := serve.Record{Time: time.Now(),"},
	{id: "E1", what: "`Driver.LSP` calls `d.lis.Process` as a bare statement", pkgs: []string{"."},
		file: "driver.go", anchor: "err := d.lis.Process(t, data)", repl: "var err error\n\td.lis.Process(t, data)"},
	{id: "E2", what: "`netfail-sim` drops `syslog.WriteLog`'s error", pkgs: []string{"./cmd/netfail-sim"},
		file: "cmd/netfail-sim/main.go", anchor: "return syslog.WriteLog(w, camp.Syslog)", repl: "syslog.WriteLog(w, camp.Syslog); return nil"},
	{id: "Q1", what: "`Supervisor.ingest` applies past the drain deadline", pkgs: []string{"./internal/serve"},
		file: "internal/serve/supervisor.go", anchor: "\t\t\tif s.abandoned.Load() {\n\t\t\t\tbreak\n\t\t\t}\n", repl: ""},
	{id: "L1", what: "no lock in `obs.Registry.Snapshot`", race: true, pkgs: []string{"./internal/obs", "./internal/serve"},
		file: "internal/obs/metrics.go", anchor: "\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tout := ", repl: "\tout := "},
	{id: "L2", what: "no lock in `obs.Tracer.Snapshot`", race: true, pkgs: []string{"./internal/obs", "./internal/serve"},
		file: "internal/obs/obs.go", anchor: "\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n\tout := ", repl: "\tout := "},
	{id: "L3", what: "no lock in `obs.Registry.Counter`", race: true, pkgs: []string{"./internal/obs", "./internal/serve"},
		file: "internal/obs/metrics.go", anchor: "\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tc, ok := ", repl: "\tc, ok := "},
	{id: "L4", what: "no lock in `obs.Tracer.span`", race: true, pkgs: []string{"./internal/obs", "./internal/serve"},
		file: "internal/obs/obs.go", anchor: "\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n\tt.seq++", repl: "\tt.seq++"},

	{id: "P1", what: "`Driver.extract` reads shards last to first", pkgs: []string{"."},
		file: "driver.go", anchor: "for i, sh := range shards {", repl: "for i := range shards {\n\t\tsh := shards[len(shards)-1-i]"},
	{id: "P2", what: "`Driver.extract` merges each later shard in front", pkgs: []string{"."},
		file: "driver.go", anchor: "d.traces.Merge(&scratch)", repl: "scratch.Merge(d.traces)\n\t\t\t*d.traces, scratch = scratch, core.SyslogTraces{}"},
	{id: "P3", what: "`linkStream.merge` equal-time tie-break flipped (`outL[b-1] > outL[b]`)", pkgs: []string{".", "./internal/core"},
		file: "internal/core/syslogtrace.go", anchor: "if outL[b-1] < outL[b] ||", repl: "if outL[b-1] > outL[b] ||"},
	{id: "P4", what: "store `Writer.Finish` drops the last message segment", pkgs: []string{".", "./internal/store"},
		file: "internal/store/writer.go", anchor: "\tif err := w.finishMessageSegment(); err != nil {\n\t\treturn err\n\t}\n\tw.man.Format", repl: "\tw.man.Format"},
	{id: "P5", what: "`Driver.Syslog` does not count `lines.Kept` (salvage conservation)", pkgs: []string{"."},
		file: "driver.go", anchor: "\td.lines.Kept++\n", repl: "\n"},
	{id: "P6", what: "`sortFailures` by descending start (per-link order)", pkgs: []string{".", "./internal/trace"},
		file: "internal/trace/reconstruct.go", anchor: "return fs[i].Start.Before(fs[j].Start)", repl: "return fs[j].Start.Before(fs[i].Start)"},
	{id: "P7", what: "Table 4 `FalsePositives = len(m.OnlyB)` (Table 4 conservation)", pkgs: []string{".", "./internal/core"},
		file: "internal/core/tables.go", anchor: "FalsePositives:  len(m.OnlyA),", repl: "FalsePositives:  len(m.OnlyB),"},
	{id: "P8", what: "scorecard `Consistent` judged at α 0.05", pkgs: []string{".", "./internal/report"},
		file: "internal/report/scorecard.go", anchor: "ok = (m > alpha) == (p == 1)", repl: "ok = (m > 0.05) == (p == 1)"},
	{id: "S1", what: "simulator `BlackoutFlap = 0`", pkgs: []string{".", "./internal/netsim"},
		file: "internal/netsim/impair.go", anchor: "BlackoutFlap:      0.21,", repl: "BlackoutFlap:      0,"},
	{id: "S2", what: "simulator `SpuriousDownProb` × 3", pkgs: []string{".", "./internal/netsim"},
		file: "internal/netsim/impair.go", anchor: "SpuriousDownProb: 0.120,", repl: "SpuriousDownProb: 0.360,"},
	{id: "X1", what: "store posts transition record `i` as `i+1`", pkgs: []string{".", "./internal/store", "./internal/api"},
		file: "internal/store/writer.go", anchor: "func(i int, r *TransitionRecord) error {", repl: "func(i int, r *TransitionRecord) error {\n\t\ti++"},
	{id: "X2", what: "store posts a failure under the neighbouring link", pkgs: []string{".", "./internal/store", "./internal/api"},
		file: "internal/store/writer.go", anchor: "\t\t\tmaxSpanMs = span\n\t\t}\n\t\tpost[link] = ", repl: "\t\t\tmaxSpanMs = span\n\t\t}\n\t\tlink ^= 1\n\t\tpost[link] = "},
	{id: "X3", what: "store posts message record `ord` as `ord+1`", pkgs: []string{".", "./internal/store", "./internal/api"},
		file: "internal/store/writer.go", anchor: "w.msgPost[h] = append(w.msgPost[h], ord)", repl: "w.msgPost[h] = append(w.msgPost[h], ord+1)"},
	{id: "M1", what: "`linkStream.merge` absorbs only strictly inside the window", pkgs: []string{"./internal/core"},
		file: "internal/core/syslogtrace.go", anchor: "since >= 0 && since <= w", repl: "since >= 0 && since < w"},
	{id: "M2", what: "`linkStream.merge` never sorts an out-of-order stream", pkgs: []string{"./internal/core"},
		file: "internal/core/syslogtrace.go", anchor: "if s.unsorted {", repl: "if s.unsorted && false {"},
	{id: "M3", what: "`linkStream.merge` keeps per-link state from the previous merge", pkgs: []string{"./internal/core"},
		file: "internal/core/syslogtrace.go", anchor: "\tclear(seen)\n", repl: "\n"},
	{id: "M4", what: "`linkStream.merge` reporter tie-break flipped", pkgs: []string{"./internal/core"},
		file: "internal/core/syslogtrace.go", anchor: "dst[b-1].Reporter <= dst[b].Reporter", repl: "dst[b-1].Reporter >= dst[b].Reporter"},
	{id: "R1", what: "Figure 1 grid keeps repeated x values", pkgs: []string{".", "./internal/report"},
		file: "internal/report/paper.go", anchor: "if len(dedup) == 0 || v != dedup[len(dedup)-1] {", repl: "if true {"},
	{id: "R2", what: "Figure 1 `cdfAt` reads the curve left of a step", pkgs: []string{".", "./internal/report"},
		file: "internal/report/paper.go", anchor: "return c.X[i] > x })", repl: "return c.X[i] >= x })"},
	{id: "R3", what: "Figure 1 grid rounds its sample positions", pkgs: []string{".", "./internal/report"},
		file: "internal/report/paper.go", anchor: "dedup[int(float64(i)*step)]", repl: "dedup[int(float64(i)*step+0.5)]"},
	{id: "B1", what: "bootstrap counts a draw at its sample index, not its rank", pkgs: []string{"./internal/stats"},
		file: "internal/stats/bootstrap.go", anchor: "m.count[m.rank[rem]]++", repl: "m.count[rem]++"},
	{id: "B2", what: "bootstrap median of an even resample is its lower middle", pkgs: []string{"./internal/stats"},
		file: "internal/stats/bootstrap.go", anchor: "return vlo*(1-m.frac) + m.sorted[k]*m.frac", repl: "return vlo"},
	{id: "B3", what: "bootstrap ranks the sample by `<`, so a NaN ties with every value", pkgs: []string{"./internal/stats"},
		file: "internal/stats/bootstrap.go", anchor: "return cmp.Compare(sample[a], sample[b])", repl: "if sample[a] < sample[b] {\n\t\treturn -1\n\t}\n\tif sample[a] > sample[b] {\n\t\treturn 1\n\t}\n\treturn cmp.Compare(a, b)"},
	{id: "N1", what: "listener skips an LSP that changes one advertisement", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "if len(was)+len(is) == 0 && !first {", repl: "if len(was)+len(is) <= 1 && !first {"},
	{id: "N2", what: "listener baseline ignores link-ID adjacencies", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "r.state.adj = stateOf(plainAdv || idAdv)", repl: "r.state.adj = stateOf(plainAdv)"},
	{id: "N3", what: "listener forgets a link ID once it is withdrawn", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "case prevExt > 0 || curExt > 0:", repl: "case curExt > 0:"},
	{id: "N4", what: "listener emits a transition into the state the link is in", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "if prevHas == newHas || *state == stateOf(newHas) {", repl: "if prevHas == newHas {"},
	{id: "N5", what: "listener decodes the next LSP into the one it just installed", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.spare = displaced", repl: "l.spare = lsp"},
	{id: "N6", what: "listener's key scratch aliases a fragment's keys", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "\tf.keys, l.keys = keys, f.keys\n", repl: "\tf.keys = keys\n"},
	{id: "N7", what: "listener stamps a transition to the second", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "Time:     at,", repl: "Time:     at.Truncate(time.Second),"},
	{id: "N8", what: "listener files IP transitions as IS reachability", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "trace.KindIPReach, &l.ipTransitions)", repl: "trace.KindISReach, &l.ipTransitions)"},
	{id: "N9", what: "listener names the originator's first link for every transition", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "Link:     r.link.ID,", repl: "Link:     o.ifaces[0].link.ID,"},
	{id: "N10", what: "listener names the link's A end as the reporter", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "Reporter: o.router.Name,", repl: "Reporter: r.link.A.Host,"},
	{id: "N11", what: "listener does not count non-LSP PDUs", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.otherPDUs++", repl: ""},
	{id: "N12", what: "listener does not count decode errors", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.decodeErrors++", repl: ""},
	{id: "N13", what: "listener does not count processed LSPs", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.lspCount++", repl: ""},
	{id: "N14", what: "listener does not count stale LSPs", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.staleLSPs++", repl: ""},
	{id: "N15", what: "listener does not count unknown originators", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.unknownOrig++", repl: ""},
	{id: "N16", what: "listener does not count multi-link skips", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "l.multiLinkSkips++", repl: ""},
	{id: "N17", what: "listener keeps an originator's first hostname", pkgs: []string{"./internal/listener"},
		file: "internal/listener/listener.go", anchor: "if lsp.Hostname != \"\" {", repl: "if lsp.Hostname != \"\" && o.hostname == \"\" {"},
	{id: "I1", what: "`ParseIPv4` accepts an IPv4-mapped IPv6 address", pkgs: []string{"./internal/topo", "./internal/config"},
		file: "internal/topo/link.go", anchor: "if err != nil || !a.Is4() {", repl: "if err != nil || !a.Is4() && !a.Is4In6() {"},
	{id: "I2", what: "`ParseIPv4` reads the octets little-endian", pkgs: []string{"./internal/topo", "./internal/config"},
		file: "internal/topo/link.go", anchor: "return binary.BigEndian.Uint32(b[:]), nil", repl: "return binary.LittleEndian.Uint32(b[:]), nil"},
	{id: "O1", what: "device advertises its loopback at metric 10", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "isis.IPPrefix{Metric: 0, Addr: d.Info.Loopback, Length: 32}", repl: "isis.IPPrefix{Metric: 10, Addr: d.Info.Loopback, Length: 32}"},
	{id: "O2", what: "device sends link IDs only when it is not capable", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "if d.LinkIDCapable {", repl: "if !d.LinkIDCapable {"},
	{id: "O3", what: "device withdraws a link's prefix with its adjacency", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "if !ifc.physDown {", repl: "if !ifc.adjDown {"},
	{id: "O4", what: "device keeps the previous LSP's neighbors", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "l.Neighbors = l.Neighbors[:0]", repl: "l.Neighbors = l.Neighbors[:len(l.Neighbors)]"},
	{id: "O5", what: "device sends a remote link ID of 0", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "ids.SetLinkIDs(link.Subnet, link.Subnet)", repl: "ids.SetLinkIDs(link.Subnet, 0)"},
	{id: "O6", what: "`OriginateLSP` hands out its scratch prefix list", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "l.Prefixes = slices.Clone(l.Prefixes)", repl: "l.Prefixes = l.Prefixes[:len(l.Prefixes):len(l.Prefixes)]"},
	{id: "O7", what: "device advertises every neighbor at metric 10", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "nbr := isis.ISNeighbor{System: ifc.peer, Metric: ifc.metric}", repl: "nbr := isis.ISNeighbor{System: ifc.peer, Metric: 10}"},
	{id: "O8", what: "device advertises each link as a /30", pkgs: []string{"./internal/device", "./internal/netsim"},
		file: "internal/device/device.go", anchor: "isis.IPPrefix{Metric: ifc.metric, Addr: ifc.subnet, Length: 31}", repl: "isis.IPPrefix{Metric: ifc.metric, Addr: ifc.subnet, Length: 30}"},
	{id: "W1", what: "LSP encoder sets the ATT flag in the wrong bit", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "flags |= 0x40 // ATT default-metric bit", repl: "flags |= 0x20 // ATT default-metric bit"},
	{id: "W2", what: "LSP encoder sets the overload flag in the wrong bit", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "flags |= 0x04", repl: "flags |= 0x02"},
	{id: "W3", what: "LSP encoder writes an area address one octet long", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "b = append(b, byte(len(a)))", repl: "b = append(b, byte(len(a)+1))"},
	{id: "W4", what: "LSP encoder's hostname TLV is one octet short", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "b = append(b, byte(TLVHostname), byte(len(l.Hostname)))", repl: "b = append(b, byte(TLVHostname), byte(len(l.Hostname)-1))"},
	{id: "W5", what: "LSP encoder splits interface addresses every 62", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "const perTLV = 63", repl: "const perTLV = 62"},
	{id: "W6", what: "LSP encoder emits prefixes before neighbors", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "b = appendExtISReach(b, l.Neighbors)\n\tb = appendExtIPReach(b, l.Prefixes)", repl: "b = appendExtIPReach(b, l.Prefixes)\n\tb = appendExtISReach(b, l.Neighbors)"},
	{id: "W7", what: "LSP encoder checksums from octet 14", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/lsp.go", anchor: "const ckStart = 12", repl: "const ckStart = 14"},
	{id: "W8", what: "IS reachability opens a new TLV when an entry would fill the last octet", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/tlv.go", anchor: "if start < 0 || len(b)-start-2+entry > maxTLVValueLength {", repl: "if start < 0 || len(b)-start-2+entry >= maxTLVValueLength {"},
	{id: "W9", what: "IS reachability entry's sub-TLV length one too long", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/tlv.go", anchor: "byte(n.Metric), byte(subLen))", repl: "byte(n.Metric), byte(subLen+1))"},
	{id: "W10", what: "IP reachability opens a new TLV when an entry would fill the last octet", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/tlv.go", anchor: "if start < 0 || len(b)-start-2+5+octets > maxTLVValueLength {", repl: "if start < 0 || len(b)-start-2+5+octets >= maxTLVValueLength {"},
	{id: "W11", what: "IP reachability sends one address octet too many", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/tlv.go", anchor: "octets := int(p.Length+7) / 8\n\t\tif start < 0", repl: "octets := int(p.Length+8) / 8\n\t\tif start < 0"},
	{id: "W12", what: "IP reachability sets the down bit as the sub-TLV bit", pkgs: []string{"./internal/isis", "./internal/netsim"},
		file: "internal/isis/tlv.go", anchor: "ctrl |= 0x80", repl: "ctrl |= 0x40"},
}

// The generated block's path (from this package) and markers.
const (
	mutationDoc   = "../../docs/static-analysis.md"
	mutationOpen  = "<!-- mutation table -->\n"
	mutationClose = "<!-- /mutation table -->\n"
)

// TestMutationRows holds the table to the code and to the doc without
// running a mutation: every anchor occurs exactly once in its file, so
// a refactor that moves guarded code must move its row too, and the
// generated block names exactly the table's rows, so a row added
// without `make mutate` fails.
func TestMutationRows(t *testing.T) {
	var ids []string
	for _, m := range mutations {
		if slices.Contains(ids, m.id) {
			t.Errorf("row %s: ID repeated", m.id)
		}
		ids = append(ids, m.id)
		src, err := os.ReadFile(filepath.Join("../..", m.file))
		if err != nil {
			t.Errorf("row %s: %v", m.id, err)
			continue
		}
		if n := bytes.Count(src, []byte(m.anchor)); n != 1 {
			t.Errorf("row %s: anchor %q occurs %d times in %s, want once", m.id, m.anchor, n, m.file)
		}
		if m.anchor == m.repl || len(m.pkgs) == 0 {
			t.Errorf("row %s: mutates nothing or tests no package", m.id)
		}
	}
	_, block, _, err := splitMutationDoc()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := blockRows(block); !slices.Equal(got, ids) {
		t.Errorf("%s names rows %v, the table %v: run make mutate", mutationDoc, got, ids)
	}
}

// blockRows reads the block's first table, which lists the mutations
// in table order: each row's ID, and its verdict, with the check named
// when it is "one".
func blockRows(block string) (ids []string, verdict map[string]string) {
	verdict = map[string]string{}
	for _, line := range strings.Split(block, "\n") {
		cells := strings.Split(strings.TrimSuffix(line, " |"), " | ")
		if len(cells) < 6 || cells[0] == "| row" {
			continue
		}
		id := strings.TrimPrefix(cells[0], "| ")
		ids = append(ids, id)
		verdict[id] = cells[len(cells)-1]
		if verdict[id] == "one" {
			verdict[id] += " (" + cells[len(cells)-2] + ")"
		}
	}
	return ids, verdict
}

// splitMutationDoc returns the doc before, inside and after the
// markers.
func splitMutationDoc() (before, block, after string, err error) {
	doc, err := os.ReadFile(mutationDoc)
	if err != nil {
		return "", "", "", err
	}
	before, rest, ok := strings.Cut(string(doc), mutationOpen)
	block, after, ok2 := strings.Cut(rest, mutationClose)
	if !ok || !ok2 {
		return "", "", "", fmt.Errorf("%s: no %q … %q block", mutationDoc, mutationOpen, mutationClose)
	}
	return before, block, after, nil
}

// TestMutationTable runs every row and rewrites the block. It runs only
// under NETFAIL_GOLDEN=update (`make mutate`): a row is a build and a
// test run, minutes for the table. Once the block is written, a row
// whose verdict, or whose one check, moved from the committed block
// fails the run: the diff is the finding, and committing the block
// accepts it.
func TestMutationTable(t *testing.T) {
	if os.Getenv("NETFAIL_GOLDEN") != "update" {
		t.Skip("runs every mutation; `make mutate` (NETFAIL_GOLDEN=update) does")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{root: root, tmp: t.TempDir()}
	// A check that already fails says nothing about a mutation.
	var pkgs, racePkgs []string
	for _, m := range mutations {
		pkgs = append(pkgs, m.pkgs...)
		if m.race {
			racePkgs = append(racePkgs, m.pkgs...)
		}
	}
	slices.Sort(pkgs)
	slices.Sort(racePkgs)
	failed := r.tests(nil, slices.Compact(pkgs), false, "")
	for name := range r.tests(nil, slices.Compact(racePkgs), true, "") {
		failed[name+" -race"] = true
	}
	if len(failed) > 0 {
		t.Fatalf("the unmutated tree fails %v", failed)
	}
	// Rows that test the root package (most of a minute each, about one
	// CPU) run two at a time, after the rest, whose tests are shorter
	// and some timing-bound, have run alone.
	caught := make([][]string, len(mutations))
	run := func(i int) {
		start := time.Now()
		var err error
		if caught[i], err = r.run(mutations[i]); err != nil {
			t.Errorf("row %s: %v", mutations[i].id, err)
		}
		t.Logf("%s %.0fs %v", mutations[i].id, time.Since(start).Seconds(), caught[i])
	}
	for i, m := range mutations {
		if !slices.Contains(m.pkgs, ".") {
			run(i)
		}
	}
	var wg sync.WaitGroup
	lanes := make(chan struct{}, 2)
	for i, m := range mutations {
		if !slices.Contains(m.pkgs, ".") {
			continue
		}
		wg.Add(1)
		lanes <- struct{}{}
		go func() {
			defer func() { <-lanes; wg.Done() }()
			run(i)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	before, block, after, err := splitMutationDoc()
	if err != nil {
		t.Fatal(err)
	}
	fresh := renderMutations(caught)
	if err := os.WriteFile(mutationDoc, []byte(before+mutationOpen+fresh+mutationClose+after), 0o644); err != nil {
		t.Fatal(err)
	}
	_, was := blockRows(block)
	ids, now := blockRows(fresh)
	for _, id := range ids {
		if v, ok := was[id]; ok && v != now[id] {
			t.Errorf("row %s: %s in the committed block, %s now", id, v, now[id])
		}
	}
}

// A runner applies rows through go tool -overlay files in tmp; the
// tree under root is never written.
type runner struct{ root, tmp string }

// run applies m and returns the checks that fail under it, sorted.
func (r *runner) run(m mutation) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(r.root, m.file))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(m.anchor)); n != 1 {
		return nil, fmt.Errorf("anchor occurs %d times", n)
	}
	dir := filepath.Join(r.tmp, m.id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	mutated := filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.anchor), []byte(m.repl), 1), 0o644); err != nil {
		return nil, err
	}
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(r.root, m.file): mutated}})
	if err != nil {
		return nil, err
	}
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		return nil, err
	}
	return r.checks(m, overlay), nil
}

// checks runs m's checks under overlay and returns those that failed,
// sorted. A build failure ends the run: every later check would only
// fail to build.
func (r *runner) checks(m mutation, overlay string) []string {
	flags := []string{"-overlay=" + overlay}
	caught := map[string]bool{}
	// vet compiles without linking; only a failure pays for go build.
	// An importer the mutation breaks fails its tests' build instead.
	pkg := "./" + filepath.Dir(m.file)
	if _, ok := r.goTool("vet", flags, pkg); !ok {
		if _, ok := r.goTool("build", flags, "./..."); !ok {
			return []string{"build"}
		}
		caught["vet"] = true
	}
	pkgs, err := lint.LoadOverlay(r.root, overlay, []string{pkg})
	findings, err2 := lint.Run(pkgs, []*lint.Analyzer{detclock.Analyzer, droppederr.Analyzer, lockguard.Analyzer})
	if err != nil || err2 != nil {
		caught["netfail-lint (load)"] = true
	}
	for _, f := range findings {
		caught["netfail-lint "+f.Analyzer] = true
	}
	plain, raced := r.tests(flags, m.pkgs, false, ""), map[string]bool{}
	if m.race {
		raced = r.tests(flags, m.pkgs, true, "")
		for name := range plain {
			delete(raced, name)
		}
	}
	// A test can fail for its own reasons (a timing bound under load).
	// Where one such failure could move the verdict, a test counts only
	// if it fails again under the same mutation.
	if len(caught)+len(plain)+len(raced) <= 2 {
		r.confirm(flags, m.pkgs, false, plain)
		r.confirm(flags, m.pkgs, true, raced)
	}
	for name := range plain {
		caught[name] = true
	}
	for name := range raced {
		caught[name+" -race"] = true
	}
	return sortedNames(caught)
}

// tests runs go test -json (with -race if race, on the tests run
// selects if not empty) on pkgs and returns the failed tests; no
// package, no test. A panic ends its package's test binary, so the
// tests after the one that panicked never ran: that package runs again
// with every test that panicked so far skipped, until a run ends
// without a panic (see panics), and a test that failed in any run
// counts.
func (r *runner) tests(flags, pkgs []string, race bool, run string) map[string]bool {
	if len(pkgs) == 0 {
		return map[string]bool{}
	}
	failed, panicked := r.testRun(flags, pkgs, race, run, nil)
	for path, skip := range panicked {
		for {
			again, more := r.testRun(flags, []string{pattern(path)}, race, run, skip)
			maps.Copy(failed, again)
			fresh := slices.DeleteFunc(more[path], func(name string) bool { return slices.Contains(skip, name) })
			if len(fresh) == 0 {
				break
			}
			skip = append(skip, fresh...)
		}
	}
	return failed
}

// testRun is one go test -json run of pkgs, skipping the tests named
// in skip: its failed tests, and per package (by import path) the
// tests that panicked.
func (r *runner) testRun(flags, pkgs []string, race bool, run string, skip []string) (map[string]bool, map[string][]string) {
	args := append(slices.Clone(flags), "-json", timeout(pkgs))
	if race {
		args = append(args, "-race")
	}
	if run != "" {
		args = append(args, "-run", run)
	}
	if len(skip) > 0 {
		args = append(args, "-skip", "^("+strings.Join(skip, "|")+")$")
	}
	out, _ := r.goTool("test", args, pkgs...)
	return failedTests(out)
}

// pattern is the go test pattern, relative to the module root, of the
// package at import path ("." for the root package "netfail").
func pattern(path string) string {
	return "." + strings.TrimPrefix(path, "netfail")
}

// confirm re-runs the failed tests of pkgs and forgets those that pass;
// a package that failed with no test stays.
func (r *runner) confirm(flags, pkgs []string, race bool, failed map[string]bool) {
	var names []string
	for name := range failed {
		if _, test, ok := strings.Cut(name, "."); ok {
			names = append(names, test)
		}
	}
	if len(names) == 0 {
		return
	}
	again := r.tests(flags, pkgs, race, "^("+strings.Join(names, "|")+")$")
	for name := range failed {
		if strings.Contains(name, ".") && !again[name] {
			delete(failed, name)
		}
	}
}

// timeout bounds a test run, for rows whose bug hangs a test: the root
// package takes most of a minute, every other ten seconds at most.
func timeout(pkgs []string) string {
	if slices.Contains(pkgs, ".") {
		return "-timeout=3m"
	}
	return "-timeout=30s"
}

// goTool runs the go command in the module root with NETFAIL_GOLDEN
// unset, so a mutated test run never rewrites a golden file.
func (r *runner) goTool(verb string, flags []string, args ...string) ([]byte, bool) {
	cmd := exec.Command("go", append(append([]string{verb}, flags...), args...)...)
	cmd.Dir = r.root
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "NETFAIL_GOLDEN=") })
	out, err := cmd.CombinedOutput()
	return out, err == nil
}

// failedTests reads go test -json output: the failed top-level tests
// as "pkg.TestName", and "pkg (package)" for a package that failed
// with none (a timeout, a crash in TestMain, a build failure); and per
// package import path, the top-level tests that panicked.
func failedTests(out []byte) (map[string]bool, map[string][]string) {
	failed := map[string]bool{}
	panicked := map[string][]string{}
	pkgFailed := map[string]bool{}
	hasTest := map[string]bool{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		var ev struct{ Action, Package, ImportPath, Test, Output string }
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		top, _, _ := strings.Cut(ev.Test, "/")
		if ev.Action == "output" && top != "" && panics(ev.Output) && !slices.Contains(panicked[ev.Package], top) {
			panicked[ev.Package] = append(panicked[ev.Package], top)
		}
		if ev.Action != "fail" && ev.Action != "build-fail" {
			continue
		}
		pkg := shortPkg(ev.Package + ev.ImportPath)
		if top == "" {
			pkgFailed[pkg] = true
			continue
		}
		failed[pkg+"."+top] = true
		hasTest[pkg] = true
	}
	for pkg := range pkgFailed {
		if !hasTest[pkg] {
			failed[pkg+" (package)"] = true
		}
	}
	return failed, panicked
}

// panics reports whether a line of test output starts a panic. A
// timeout panics too, but a hung package is not run again: each run
// would cost the whole timeout to find one more hung test.
func panics(line string) bool {
	return strings.HasPrefix(line, "panic: ") && !strings.HasPrefix(line, "panic: test timed out")
}

// shortPkg names a package by its last element ("netfail" for the
// root, "core" for netfail/internal/core).
func shortPkg(path string) string {
	path, _, _ = strings.Cut(path, " ") // "p [p.test]"
	return path[strings.LastIndex(path, "/")+1:]
}

// renderMutations prints the block: one line per row with its verdict
// (none, one, many), then per check the rows only it catches.
func renderMutations(caught [][]string) string {
	var b strings.Builder
	b.WriteString("\n| row | mutation | file | packages tested | caught by | verdict |\n|---|---|---|---|---|---|\n")
	only := map[string][]string{}
	for i, m := range mutations {
		by := strings.Join(caught[i], ", ")
		verdict := "many"
		switch len(caught[i]) {
		case 0:
			by, verdict = "—", "**none**"
		case 1:
			verdict = "one"
			only[caught[i][0]] = append(only[caught[i][0]], m.id)
		default:
			if len(caught[i]) > 4 {
				by = fmt.Sprintf("%s, … (%d)", strings.Join(caught[i][:3], ", "), len(caught[i]))
			}
		}
		pkgs := "`" + strings.Join(m.pkgs, "` `") + "`"
		if m.race {
			pkgs += " (and `-race`)"
		}
		fmt.Fprintf(&b, "| %s | %s | `%s` | %s | %s | %s |\n", m.id, m.what, m.file, pkgs, by, verdict)
	}
	b.WriteString("\n| check | rows only it catches |\n|---|---|\n")
	checks := make([]string, 0, len(only))
	for c := range only {
		checks = append(checks, c)
	}
	slices.Sort(checks)
	for _, c := range checks {
		fmt.Fprintf(&b, "| %s | %s |\n", c, strings.Join(only[c], " "))
	}
	b.WriteString("\n")
	return b.String()
}

// TestFailedTestsReadsTestJSON holds the runner's reading of go test
// -json: the checks a run names, and the tests that panicked, which
// the runner skips to run the rest of their package again.
func TestFailedTestsReadsTestJSON(t *testing.T) {
	type ev struct{ Action, Package, ImportPath, Test, Output string }
	const core = "netfail/internal/core"
	for _, tc := range []struct {
		name     string
		events   []ev
		failed   []string
		panicked map[string][]string
	}{
		{"passing run", []ev{{Action: "pass", Package: core, Test: "TestA"}, {Action: "pass", Package: core}}, nil, nil},
		{"failed test", []ev{{Action: "fail", Package: core, Test: "TestA"}, {Action: "fail", Package: core}}, []string{"core.TestA"}, nil},
		{"failed subtest names its top-level test", []ev{
			{Action: "fail", Package: core, Test: "TestA/case"}, {Action: "fail", Package: core, Test: "TestA"}, {Action: "fail", Package: core},
		}, []string{"core.TestA"}, nil},
		{"package failed with no test", []ev{
			{Action: "output", Package: core, Output: "panic: test timed out after 30s\n"}, {Action: "fail", Package: core},
		}, []string{"core (package)"}, nil},
		{"build failure", []ev{
			{Action: "build-fail", ImportPath: core + " [" + core + ".test]"}, {Action: "fail", Package: core},
		}, []string{"core (package)"}, nil},
		{"panic names the test for a run past it", []ev{
			{Action: "fail", Package: core, Test: "TestA"},
			{Action: "output", Package: core, Test: "TestB/case", Output: "panic: index out of range [4] with length 4 [recovered]\n"},
			{Action: "output", Package: core, Test: "TestB", Output: "\tpanic: index out of range [4] with length 4\n"},
			{Action: "fail", Package: core, Test: "TestB"}, {Action: "fail", Package: core},
		}, []string{"core.TestA", "core.TestB"}, map[string][]string{core: {"TestB"}}},
		{"a timed-out test is not run past", []ev{
			{Action: "output", Package: core, Test: "TestC", Output: "panic: test timed out after 30s\n"},
			{Action: "fail", Package: core, Test: "TestC"}, {Action: "fail", Package: core},
		}, []string{"core.TestC"}, nil},
		{"panics kept per package", []ev{
			{Action: "output", Package: "netfail", Test: "TestX", Output: "panic: x\n"},
			{Action: "fail", Package: "netfail", Test: "TestX"},
			{Action: "output", Package: core, Test: "TestY", Output: "panic: y\n"},
			{Action: "fail", Package: core, Test: "TestY"},
		}, []string{"core.TestY", "netfail.TestX"}, map[string][]string{"netfail": {"TestX"}, core: {"TestY"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			for _, e := range tc.events {
				line, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				out.Write(append(line, '\n'))
			}
			failed, panicked := failedTests(out.Bytes())
			if got := sortedNames(failed); !slices.Equal(got, tc.failed) {
				t.Errorf("failed = %v, want %v", got, tc.failed)
			}
			if len(panicked) != len(tc.panicked) || !maps.EqualFunc(panicked, tc.panicked, slices.Equal) {
				t.Errorf("panicked = %v, want %v", panicked, tc.panicked)
			}
		})
	}
}

// TestPatternNamesPackageFromModuleRoot: the package a panic names by
// import path runs again under its go test pattern.
func TestPatternNamesPackageFromModuleRoot(t *testing.T) {
	for path, want := range map[string]string{"netfail": ".", "netfail/internal/core": "./internal/core"} {
		t.Run(path, func(t *testing.T) {
			if got := pattern(path); got != want {
				t.Errorf("pattern(%q) = %q, want %q", path, got, want)
			}
		})
	}
}

// TestTestsRunsPastPanics runs the runner on a module of its own whose
// tests fail, panic and pass in turn: every test that fails is named,
// also those after a panic, which ended the first run before they ran.
func TestTestsRunsPastPanics(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{"go.mod": "module netfail\n\ngo 1.22\n", "x_test.go": `package netfail

import "testing"

func TestA(t *testing.T) { t.Fatal("fails") }
func TestB(t *testing.T) { t.Run("case", func(t *testing.T) { panic("panics in a subtest") }) }
func TestC(t *testing.T) { t.Error("fails") }
func TestD(t *testing.T) { panic("panics") }
func TestE(t *testing.T) {}
func TestF(t *testing.T) { t.Error("fails") }
`} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := &runner{root: root, tmp: t.TempDir()}
	for _, tc := range []struct{ name, run, want string }{
		{"every test", "", "netfail.TestA netfail.TestB netfail.TestC netfail.TestD netfail.TestF"},
		{"the tests run selects", "^(TestB|TestC|TestD|TestE)$", "netfail.TestB netfail.TestC netfail.TestD"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := strings.Join(sortedNames(r.tests(nil, []string{"."}, false, tc.run)), " "); got != tc.want {
				t.Errorf("failed = %s, want %s", got, tc.want)
			}
		})
	}
}

// sortedNames is the names in set, sorted.
func sortedNames(set map[string]bool) []string {
	var names []string
	for name := range set {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
