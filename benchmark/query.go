package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"time"

	"netfail"
	"netfail/internal/api"
	"netfail/internal/store"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// query-mix: one client in a closed loop over loopback, keep-alive,
// asking an indexed store seeded questions through the /api/v1 mux.

func (e *runEnv) queryDays() int {
	if e.quick {
		return 3
	}
	return 0 // the full thirteen months: the store a user would query
}

// queryMinOps is the fewest timed operations whatever -seconds says;
// warm-up operations come before them and are not timed.
func (e *runEnv) queryMinOps() (warm, timed int) {
	if e.quick {
		return 20, 200
	}
	return 100, 1500 // 70 % are point queries, and p99 needs 1000 of them
}

// The operation classes and their shares of the mix, in percent.
const (
	classFailures    = iota // one link, one day
	classTransitions        // one link, one day
	classHost               // one host's messages, one week
	classFlaps              // one link's syslog flap episodes
	classScan               // every transition in 30 days: a range scan
	numClasses
)

// queryChunk is how many operations run between two readings of the
// host's speed: a third of a second's worth.
const queryChunk = 100

// Latencies are reported per kind: the two one-link/one-day classes
// are both point queries.
const (
	kindPoint = iota
	kindHost
	kindFlaps
	kindScan
	numKinds
)

var (
	classShare = [numClasses]int{35, 35, 15, 10, 5}
	classKind  = [numClasses]int{kindPoint, kindPoint, kindHost, kindFlaps, kindScan}
	kindName   = [numKinds]string{"point", "host", "flaps", "scan"}
)

// queryOp is one generated operation: what to ask, both ways, and the
// count the in-RAM study says the answer holds.
type queryOp struct {
	class    int
	url      string
	link     topo.LinkID
	host     string
	from, to time.Time
	expect   int
}

// oracle answers every operation class from the in-RAM study.
type oracle struct {
	start    time.Time
	days     int
	links    []store.LinkEntry
	hosts    []string
	flapGap  time.Duration
	failures map[topo.LinkID][]trace.Failure // both reconstructions
	syslogF  map[topo.LinkID][]trace.Failure
	trans    map[topo.LinkID][]time.Time // all five streams
	allTrans []time.Time                 // ascending
	messages map[string][]time.Time      // per host, at the store's millisecond grain
}

func newOracle(st *netfail.Study, man *store.Manifest) *oracle {
	a := st.Analysis
	o := &oracle{
		start:    a.In.Start,
		days:     int(a.In.End.Sub(a.In.Start) / (24 * time.Hour)),
		links:    man.Links,
		hosts:    man.Hosts,
		flapGap:  a.In.FlapGap,
		failures: map[topo.LinkID][]trace.Failure{},
		syslogF:  map[topo.LinkID][]trace.Failure{},
		trans:    map[topo.LinkID][]time.Time{},
		messages: map[string][]time.Time{},
	}
	for _, f := range a.SyslogFailures {
		o.failures[f.Link] = append(o.failures[f.Link], f)
		o.syslogF[f.Link] = append(o.syslogF[f.Link], f)
	}
	for _, f := range a.ISISFailures {
		o.failures[f.Link] = append(o.failures[f.Link], f)
	}
	for _, stream := range [][]trace.Transition{a.SyslogAdj, a.SyslogPerRtr, a.SyslogPhysical, a.ISReach, a.IPReach} {
		for _, t := range stream {
			o.trans[t.Link] = append(o.trans[t.Link], t.Time)
			o.allTrans = append(o.allTrans, t.Time)
		}
	}
	sort.Slice(o.allTrans, func(i, j int) bool { return o.allTrans[i].Before(o.allTrans[j]) })
	for _, m := range st.Campaign.Syslog {
		o.messages[m.Hostname] = append(o.messages[m.Hostname], time.UnixMilli(m.Timestamp.UnixMilli()))
	}
	return o
}

func within(ts []time.Time, from, to time.Time) int {
	n := 0
	for _, t := range ts {
		if !t.Before(from) && t.Before(to) {
			n++
		}
	}
	return n
}

// window picks a span of at most days whole days inside the campaign.
func (o *oracle) window(rng *rand.Rand, days int) (from, to time.Time) {
	days = min(days, o.days)
	from = o.start.Add(time.Duration(rng.Intn(o.days-days+1)) * 24 * time.Hour)
	return from, from.Add(time.Duration(days) * 24 * time.Hour)
}

// next generates the mix's next operation.
func (o *oracle) next(rng *rand.Rand) queryOp {
	op := queryOp{}
	pick := rng.Intn(100)
	for op.class = 0; pick >= classShare[op.class]; op.class++ {
		pick -= classShare[op.class]
	}
	q := url.Values{}
	path := ""
	switch op.class {
	case classFailures, classTransitions:
		op.link = o.links[rng.Intn(len(o.links))].ID
		op.from, op.to = o.window(rng, 1)
		q.Set("link", string(op.link))
		if op.class == classFailures {
			path = "failures"
			for _, f := range o.failures[op.link] {
				if f.Overlaps(op.from, op.to) {
					op.expect++
				}
			}
		} else {
			path = "transitions"
			op.expect = within(o.trans[op.link], op.from, op.to)
		}
	case classHost:
		path = "messages"
		op.host = o.hosts[rng.Intn(len(o.hosts))]
		op.from, op.to = o.window(rng, 7)
		q.Set("host", op.host)
		op.expect = within(o.messages[op.host], op.from, op.to)
	case classFlaps:
		path = "flaps"
		op.link = o.links[rng.Intn(len(o.links))].ID
		q.Set("source", "syslog")
		q.Set("link", string(op.link))
		op.expect = len(trace.Episodes(o.syslogF[op.link], o.flapGap))
	case classScan:
		path = "transitions"
		op.from, op.to = o.window(rng, 30)
		lo := sort.Search(len(o.allTrans), func(i int) bool { return !o.allTrans[i].Before(op.from) })
		hi := sort.Search(len(o.allTrans), func(i int) bool { return !o.allTrans[i].Before(op.to) })
		op.expect = hi - lo
	}
	if !op.from.IsZero() {
		q.Set("from", op.from.Format(time.RFC3339))
		q.Set("to", op.to.Format(time.RFC3339))
	}
	op.url = "/api/v1/" + path + "?" + q.Encode()
	return op
}

// direct issues the operation against the store's Go API and returns
// the record count.
func (op *queryOp) direct(ctx context.Context, st *store.Store) (int, error) {
	var opts []store.Option
	if op.link != "" {
		opts = append(opts, store.WithLink(op.link))
	}
	if op.host != "" {
		opts = append(opts, store.WithHost(op.host))
	}
	if !op.from.IsZero() {
		opts = append(opts, store.WithWindow(op.from, op.to))
	}
	switch op.class {
	case classFailures:
		r, err := st.Failures(ctx, opts...)
		return len(r), err
	case classTransitions, classScan:
		r, err := st.Transitions(ctx, opts...)
		return len(r), err
	case classHost:
		r, err := st.Messages(ctx, opts...)
		return len(r), err
	default:
		r, err := st.Flaps(ctx, store.SourceSyslog, opts...)
		return len(r), err
	}
}

// queryRig is a store built from a fresh campaign, opened and served,
// with the oracle that knows its right answers.
type queryRig struct {
	oracle *oracle
	st     *store.Store
	srv    *httptest.Server
	client *http.Client
	body   bytes.Buffer
}

func (q *queryRig) close() {
	if q != nil && q.srv != nil {
		q.client.CloseIdleConnections()
		q.srv.Close()
	}
}

// queryCampaignSeed is the campaign behind store k. The data set is the
// same on every run, and the run's seed draws the operations asked of
// it: thirteen-month campaigns differ by a quarter in size from seed to
// seed, a run can afford to build three of them, and with the three
// taken from the run's seed the seed decided a tenth of every metric
// (peak_rss_mb, setup_s, and the cost of a scan, which returns a
// month's worth of whatever the campaign holds).
func queryCampaignSeed(k int) int64 { return int64(k + 1) }

// buildQueryRig is the workload's set-up on store k, in three stages:
// simulate; analyze into a store; open the store and serve it. The
// caller's stage runs and times each, so that a reading of the host's
// speed falls between them: the whole takes three seconds, longer than
// the host holds one speed. It returns the study too, from which the
// caller makes the rig's oracle off the clock.
func buildQueryRig(ctx context.Context, e *runEnv, k int, stage func(func() error) error) (*queryRig, *netfail.Study, error) {
	dir, err := e.dir(fmt.Sprintf("qstore-%d", k))
	if err != nil {
		return nil, nil, err
	}
	var camp *netfail.Campaign
	var study *netfail.Study
	rig := &queryRig{}
	err = stage(func() (err error) {
		camp, err = netfail.Simulate(ctx, simConfig(queryCampaignSeed(k), e.queryDays()))
		return err
	})
	if err == nil {
		err = stage(func() (err error) {
			study, err = netfail.Analyze(ctx, camp, netfail.WithStoreDir(dir))
			return err
		})
	}
	if err == nil {
		err = stage(func() (err error) {
			if rig.st, err = store.Open(dir); err != nil {
				return err
			}
			rig.srv = httptest.NewServer(api.NewMux(api.Options{Store: rig.st}))
			// One connection, kept alive: one client.
			rig.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			return nil
		})
	}
	if err != nil {
		return nil, nil, err
	}
	return rig, study, nil
}

// queryPanel is one rig per set-up repetition; operation j goes to
// rig j mod len, so still one request is in flight at a time.
type queryPanel struct {
	rigs []*queryRig
	rng  *rand.Rand
	n    int
}

func (p *queryPanel) close() {
	for _, rig := range p.rigs {
		rig.close()
	}
}

// add builds the next rig and returns how long the set-up proper
// took: at reference speed when the run reads the host's speed, wall
// seconds when it is traced.
func (p *queryPanel) add(ctx context.Context, e *runEnv) (float64, error) {
	var seconds float64
	stage := func(fn func() error) error {
		t0 := time.Now()
		err := fn()
		seconds += time.Since(t0).Seconds()
		return err
	}
	if e.host != nil {
		e.host.mark()
		stage = func(fn func() error) error {
			l, err := e.timed(fn)
			seconds += l.atRef
			return err
		}
	}
	rig, study, err := buildQueryRig(ctx, e, len(p.rigs), stage)
	if err != nil {
		return 0, err
	}
	rig.oracle = newOracle(study, rig.st.Manifest())
	p.rigs = append(p.rigs, rig)
	// The campaign and its analysis are garbage now. Collecting them here,
	// not whenever the next set-up happens to cross the pacer's line, is
	// what makes peak_rss_mb repeat.
	study = nil
	runtime.GC()
	return seconds, nil
}

// next generates the mix's next operation and picks its rig.
func (p *queryPanel) next() (*queryRig, queryOp) {
	rig := p.rigs[p.n%len(p.rigs)]
	p.n++
	return rig, rig.oracle.next(p.rng)
}

// warm issues untimed operations so that caches fill and lazy set-up
// finishes before anything is measured.
func (p *queryPanel) warm(ctx context.Context, ops int) error {
	for i := 0; i < ops; i++ {
		rig, op := p.next()
		if _, err := rig.get(ctx, &op); err != nil {
			return fmt.Errorf("warm-up %s: %w", op.url, err)
		}
	}
	return nil
}

// newQueryPanel sets the workload up three times and returns the
// median set-up time.
func newQueryPanel(ctx context.Context, e *runEnv) (*queryPanel, []float64, error) {
	p := &queryPanel{rng: rand.New(rand.NewSource(e.seed))}
	var times []float64
	for len(p.rigs) < e.setupReps(3) {
		seconds, err := p.add(ctx, e)
		if err != nil {
			p.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, seconds)
	}
	return p, times, nil
}

// reply is what one operation over HTTP came to: the latency up to the
// last body byte, the processor time client and server used between
// them, the count the body declares, and the body's size.
type reply struct {
	wall, cpu   float64
	count, size int
}

// get issues the operation over HTTP.
func (q *queryRig) get(ctx context.Context, op *queryOp) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, q.srv.URL+op.url, nil)
	if err != nil {
		return reply{}, err
	}
	w := startWatch()
	resp, err := q.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	q.body.Reset()
	_, err = q.body.ReadFrom(resp.Body)
	var r reply
	r.wall, r.cpu = w.stop()
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r.size = q.body.Len()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %.200s", resp.StatusCode, q.body.Bytes())
	}
	r.count, err = declaredCount(q.body.Bytes())
	return r, err
}

// declaredCount reads the "count" member every list endpoint puts
// first in its body (encoding/json sorts map keys), sparing the
// client a full decode of a scan's megabytes.
func declaredCount(body []byte) (int, error) {
	const key = `"count":`
	head := body[:min(len(body), 64)]
	at := bytes.Index(head, []byte(key))
	if at < 0 {
		return 0, fmt.Errorf("no %s at the head of the body: %.60s", key, body)
	}
	rest := bytes.TrimLeft(head[at+len(key):], " ")
	end := bytes.IndexAny(rest, ",}\n")
	if end < 0 {
		return 0, fmt.Errorf("unterminated count: %.60s", body)
	}
	return strconv.Atoi(string(rest[:end]))
}

func runQuery(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("query-mix", e.seed, false)
	p, setupS, err := newQueryPanel(ctx, e)
	if err != nil {
		return nil, err
	}
	defer p.close()
	warm, minOps := e.queryMinOps()
	if err := p.warm(ctx, warm); err != nil {
		return nil, err
	}

	// The host's speed is read between chunks of operations, and a
	// chunk's processor times are scaled by the speed read around it.
	type timedOp struct {
		kind int
		cpu  float64
	}
	var lat [numKinds][]float64 // ms at reference speed
	var wallMS [numKinds][]float64
	var rates []float64 // each chunk's operations per second at reference speed
	var chunk []timedOp
	var busy float64 // the client's waiting, in wall seconds
	closeChunk := func() {
		speed := e.host.lap()
		var atRefS float64
		for _, op := range chunk {
			lat[op.kind] = append(lat[op.kind], op.cpu*speed*1000)
			atRefS += op.cpu * speed
		}
		rates = append(rates, float64(len(chunk))/atRefS)
		chunk = chunk[:0]
	}
	e.host.mark()
	readingS := e.host.spentS
	for res.Attempted < minOps || busy+e.host.spentS-readingS < e.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rig, op := p.next()
		r, err := rig.get(ctx, &op)
		res.Attempted++
		busy += r.wall
		switch {
		case err != nil:
			res.fail("%s: %v", op.url, err)
			continue
		case r.count != op.expect:
			res.fail("%s: %d records, the in-RAM study has %d", op.url, r.count, op.expect)
		}
		kind := classKind[op.class]
		wallMS[kind] = append(wallMS[kind], r.wall*1000)
		if chunk = append(chunk, timedOp{kind, r.cpu}); len(chunk) == queryChunk {
			closeChunk()
		}
	}
	// A short last chunk would be a rate over a handful of operations.
	if len(chunk) >= queryChunk/2 || len(rates) == 0 {
		closeChunk()
	}

	point := lat[kindPoint]
	res.setSample("unit_p50_us", scale(point, 1000))
	res.setSample("throughput_per_s", rates)
	res.setSample("setup_s", setupS)
	res.detail("point_p50_ms_at_ref", "ms", median(point), point)
	res.detail("scan_p50_ms_at_ref", "ms", median(lat[kindScan]), lat[kindScan])
	res.detail("query_point_p50_ms", "ms", median(wallMS[kindPoint]), wallMS[kindPoint])
	if rank, _, ok := highestPercentile(wallMS[kindPoint]); ok {
		rank = min(rank, 99)
		v, _ := percentile(wallMS[kindPoint], rank)
		res.detail(fmt.Sprintf("query_point_p%g_ms", rank), "ms", v, nil)
	}
	res.detail("query_scan_p50_ms", "ms", median(wallMS[kindScan]), wallMS[kindScan])
	res.detail("query_ops_per_s", "op/s", float64(res.Attempted)/busy, nil)
	return res, nil
}

// traceQuery is the staged driver for query-mix: one operation
// sequence issued twice, over HTTP and straight at the store, so the
// difference is the api layer.
func traceQuery(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("query-mix", e.seed, true)
	rec := e.rec

	p := &queryPanel{rng: rand.New(rand.NewSource(e.seed))}
	defer p.close()
	var err error
	rec.do("setup", func() { _, err = p.add(ctx, e) })
	if err != nil {
		return nil, err
	}
	rig := p.rigs[0]
	var opens []float64
	for i := 0; i < 3; i++ {
		s := rec.do("store.open", func() { _, err = store.Open(rig.st.Dir()) })
		if err != nil {
			return nil, err
		}
		opens = append(opens, s.seconds())
	}
	res.set("store.open_s", median(opens))
	warm, minOps := e.queryMinOps()
	if err := p.warm(ctx, warm); err != nil {
		return nil, err
	}

	// Half the run over HTTP, then the same operations again directly.
	var ops []queryOp
	var apiLat, storeLat [numKinds][]float64
	var scanBytes, apiBusy, storeBusy float64
	rec.light("api.loop", func() {
		start := time.Now()
		for len(ops) < minOps || time.Since(start).Seconds() < e.seconds/2 {
			if err = ctx.Err(); err != nil {
				return
			}
			_, op := p.next()
			ops = append(ops, op)
			res.Attempted++
			kind := classKind[op.class]
			var r reply
			var gerr error
			rec.light("api."+kindName[kind], func() { r, gerr = rig.get(ctx, &op) })
			switch {
			case gerr != nil:
				res.fail("%s: %v", op.url, gerr)
				continue
			case r.count != op.expect:
				res.fail("%s: %d records, the in-RAM study has %d", op.url, r.count, op.expect)
			}
			apiLat[kind] = append(apiLat[kind], r.wall*1000)
			apiBusy += r.wall
			if kind == kindScan {
				scanBytes += float64(r.size)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	rec.light("store.loop", func() {
		for i := range ops {
			op := &ops[i]
			res.Attempted++
			kind := classKind[op.class]
			var count int
			var derr error
			s := rec.light("store."+kindName[kind], func() { count, derr = op.direct(ctx, rig.st) })
			switch {
			case derr != nil:
				res.fail("store %s: %v", op.url, derr)
				continue
			case count != op.expect:
				res.fail("store %s: %d records, the in-RAM study has %d", op.url, count, op.expect)
			}
			storeLat[kind] = append(storeLat[kind], s.seconds()*1000)
			storeBusy += s.seconds()
		}
	})

	for kind, name := range kindName {
		res.setSample("api."+name+"_p50_ms", apiLat[kind])
		res.setSample("store."+name+"_p50_ms", storeLat[kind])
	}
	// Reported only with ten samples beyond it; 0 otherwise.
	if v, ok := percentile(apiLat[kindPoint], 99); ok {
		res.set("api.point_p99_ms", v)
	}
	res.set("api.overhead_point_ms", res.Metrics["api.point_p50_ms"].Value-res.Metrics["store.point_p50_ms"].Value)
	if n := len(apiLat[kindScan]); n > 0 {
		res.set("api.scan_mb", scanBytes/float64(n)/1e6)
	}
	// Here coverage is the store's share of the HTTP loop's time.
	setCoverage(res, storeBusy, apiBusy)
	return res, nil
}
