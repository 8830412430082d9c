package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"netfail"
	"netfail/internal/api"
	"netfail/internal/core"
	"netfail/internal/store"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// The reference for the append encoders: the wire structs and *Body
// builders the API served through encoding/json before the encoders
// replaced them, verbatim. Oracle only.

type linkJSON struct {
	ID    string `json:"id"`
	Class string `json:"class"`
}

type failureJSON struct {
	Source string    `json:"source"`
	Link   string    `json:"link"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

type transitionJSON struct {
	Stream   string    `json:"stream"`
	Time     time.Time `json:"time"`
	Link     string    `json:"link"`
	Dir      string    `json:"dir"`
	Kind     string    `json:"kind"`
	Reporter string    `json:"reporter"`
}

type messageJSON struct {
	Time time.Time `json:"time"`
	Host string    `json:"host"`
	Line string    `json:"line"`
}

type episodeJSON struct {
	Link     string        `json:"link"`
	Start    time.Time     `json:"start"`
	End      time.Time     `json:"end"`
	Flap     bool          `json:"flap"`
	Failures []failureJSON `json:"failures"`
}

// listBody is a list endpoint's response, {"<resource>": [...],
// "count": n}, each record in its wire shape.
func listBody[R, J any](resource string, recs []R, wire func(R) J) any {
	out := make([]J, len(recs))
	for i, r := range recs {
		out[i] = wire(r)
	}
	return map[string]any{resource: out, "count": len(out)}
}

func wireFailure(src store.Source, f trace.Failure) failureJSON {
	return failureJSON{Source: src.String(), Link: string(f.Link), Start: f.Start, End: f.End}
}

// The response bodies, one builder per resource: what the endpoint
// serves and what netfail-query -json prints.

// LinksBody is the /api/v1/links body.
func LinksBody(links []store.LinkEntry) any {
	return listBody("links", links, func(l store.LinkEntry) linkJSON {
		return linkJSON{ID: string(l.ID), Class: l.Class.String()}
	})
}

// FailuresBody is the /api/v1/failures body.
func FailuresBody(recs []store.FailureRecord) any {
	return listBody("failures", recs, func(r store.FailureRecord) failureJSON {
		return wireFailure(r.Source, r.Failure())
	})
}

// TransitionsBody is the /api/v1/transitions body.
func TransitionsBody(recs []store.TransitionRecord) any {
	return listBody("transitions", recs, func(r store.TransitionRecord) transitionJSON {
		return transitionJSON{
			Stream: r.Stream.String(), Time: r.Time, Link: string(r.Link),
			Dir: r.Dir.String(), Kind: r.Kind.String(), Reporter: r.Reporter,
		}
	})
}

// MessagesBody is the /api/v1/messages body.
func MessagesBody(recs []store.MessageRecord) any {
	return listBody("messages", recs, func(r store.MessageRecord) messageJSON {
		return messageJSON{Time: r.Time, Host: r.Host, Line: r.Line}
	})
}

// EpisodesBody is the /api/v1/flaps body for source src.
func EpisodesBody(src store.Source, eps []trace.Episode) any {
	return listBody("episodes", eps, func(e trace.Episode) episodeJSON {
		out := episodeJSON{
			Link:  string(e.Link),
			Start: e.Start(), End: e.End(),
			Flap:     e.IsFlap(),
			Failures: make([]failureJSON, len(e.Failures)),
		}
		for i, f := range e.Failures {
			out.Failures[i] = wireFailure(src, f)
		}
		return out
	})
}

// refEncode is what the endpoints wrote, less the indent: the
// json.Encoder's compact form of the reference body.
func refEncode(t *testing.T, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBodies holds every list encoder to the reference on one set of
// records.
func checkBodies(t *testing.T, links []store.LinkEntry, fails []store.FailureRecord,
	trans []store.TransitionRecord, msgs []store.MessageRecord, eps []trace.Episode) {
	t.Helper()
	// One Body for every list, as a pooled one is reused.
	var b api.Body
	for _, c := range []struct {
		name  string
		build func()
		want  []byte
	}{
		{"links", func() { b.Links(links) }, refEncode(t, LinksBody(links))},
		{"failures", func() { b.FailuresOf(fails) }, refEncode(t, FailuresBody(fails))},
		{"transitions", func() { b.TransitionsOf(trans) }, refEncode(t, TransitionsBody(trans))},
		{"messages", func() { b.MessagesOf(msgs) }, refEncode(t, MessagesBody(msgs))},
		{"episodes syslog", func() { b.Episodes(store.SourceSyslog, eps) }, refEncode(t, EpisodesBody(store.SourceSyslog, eps))},
		{"episodes isis", func() { b.Episodes(store.SourceISIS, eps) }, refEncode(t, EpisodesBody(store.SourceISIS, eps))},
	} {
		c.build()
		diffBody(t, c.name, b.Bytes(), c.want)
	}
}

// diffBody reports where an encoded body first departs from the
// reference's bytes.
func diffBody(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: append encoder differs from encoding/json at byte %d of %d/%d\n got: %.120q\nwant: %.120q",
			what, i, len(got), len(want), got[max(0, i-40):], want[max(0, i-40):])
	}
}

// TestOutOfRangeEnumsMatchEncodingJSON: enumeration values past the
// precomposed members — no store decodes one, but a slice may hold
// one — are written by name as encoding/json writes them.
func TestOutOfRangeEnumsMatchEncodingJSON(t *testing.T) {
	tm := time.Date(2011, 1, 2, 3, 4, 5, 6000000, time.UTC)
	var fails []store.FailureRecord
	var trans []store.TransitionRecord
	for _, v := range []int{-1, 2, 5, 99} {
		fails = append(fails, store.FailureRecord{Source: store.Source(v), Link: "l", Start: tm, End: tm})
		trans = append(trans, store.TransitionRecord{Stream: store.Stream(v), Time: tm, Link: "l",
			Dir: trace.Direction(v), Kind: trace.Kind(v), Reporter: "r"})
	}
	eps := []trace.Episode{{Link: "l", Failures: []trace.Failure{{Link: "l", Start: tm, End: tm}}}}
	checkBodies(t, nil, fails, trans, nil, eps)
	var b api.Body
	b.Episodes(store.Source(7), eps)
	diffBody(t, "episodes of source 7", b.Bytes(), refEncode(t, EpisodesBody(store.Source(7), eps)))
}

// TestAppendEncodersMatchEncodingJSON: every list body is byte for
// byte what encoding/json's Encoder makes of the reference value — on
// every record of the seed-1 14-day store, on empty lists, and on
// strings and times chosen to hit each escaping rule.
func TestAppendEncodersMatchEncodingJSON(t *testing.T) {
	t.Run("empty", func(t *testing.T) { checkBodies(t, nil, nil, nil, nil, nil) })

	t.Run("hostile", func(t *testing.T) {
		hostile := []string{
			"", "plain", `quote " and \ backslash`, "<script>alert('x')&amp;</script>",
			"line\u2028sep\u2029para", "bad \xff\xfe utf8 \xc3", "truncated \xe2\x80",
			"ctl \x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f", "\ufffd real replacement rune", "héllo wörld ✓ 🌐",
			"<189>Jan  2 03:04:05 cpe-017 %LINK-3-UPDOWN: Interface Gi0/1, changed state to down\r\n",
		}
		times := []time.Time{
			{},
			time.Unix(0, 0).UTC(),
			time.Date(2011, 1, 2, 3, 4, 5, 0, time.UTC),
			time.Date(2011, 1, 2, 3, 4, 5, 120000000, time.UTC),
			time.Date(2011, 1, 2, 3, 4, 5, 123456789, time.UTC),
			time.Date(2011, 1, 2, 3, 4, 5, 1, time.UTC),
			time.UnixMilli(1293937445007).UTC(),
			time.Date(2011, 1, 2, 3, 4, 5, 500, time.FixedZone("", -8*3600)),
		}
		// The edges of the digit-by-digit UTC path: the first and last
		// years encoding/json writes, trailing zero digits, and a zone
		// that is UTC under another pointer.
		times = append(times,
			time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
			time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
			time.Date(2011, 1, 2, 3, 4, 5, 100000000, time.UTC),
			time.Date(2011, 1, 2, 3, 4, 5, 123450000, time.UTC),
			time.Date(2011, 1, 2, 3, 4, 5, 6000, time.FixedZone("UTC", 0)))
		var (
			links []store.LinkEntry
			fails []store.FailureRecord
			trans []store.TransitionRecord
			msgs  []store.MessageRecord
			eps   []trace.Episode
		)
		for i, s := range hostile {
			a, b := times[i%len(times)], times[(i+3)%len(times)]
			links = append(links, store.LinkEntry{ID: topo.LinkID(s), Class: topo.LinkClass(i % 3)})
			fails = append(fails, store.FailureRecord{Source: store.Source(i % 2), Link: topo.LinkID(s), Start: a, End: b})
			trans = append(trans, store.TransitionRecord{
				Stream: store.Stream(i % 5), Time: a, Link: topo.LinkID(s),
				Dir: trace.Direction(i % 2), Kind: trace.Kind(i % 4), Reporter: s,
			})
			msgs = append(msgs, store.MessageRecord{Time: b, Host: s, Line: s + s})
			eps = append(eps, trace.Episode{Link: topo.LinkID(s), Failures: []trace.Failure{
				{Link: topo.LinkID(s), Start: a, End: b}, {Link: topo.LinkID(s), Start: b, End: a},
			}})
		}
		checkBodies(t, links, fails, trans, msgs, eps)
	})

	// encoding/json refuses a year it cannot write in four digits; the
	// encoder writes what AppendFormat does.
	t.Run("years encoding/json refuses", func(t *testing.T) {
		for _, tm := range []time.Time{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 0, 0, 0, 5, time.UTC)} {
			if _, err := json.Marshal(tm); err == nil {
				t.Fatalf("encoding/json wrote %s", tm)
			}
			var b api.Body
			b.TransitionsOf([]store.TransitionRecord{{Time: tm}})
			if want := `"time":"` + tm.Format(time.RFC3339Nano) + `"`; !bytes.Contains(b.Bytes(), []byte(want)) {
				t.Errorf("%s: body %s lacks %s", tm, b.Bytes(), want)
			}
		}
	})

	t.Run("seed-1 14-day store", func(t *testing.T) {
		if testing.Short() {
			t.Skip("campaign simulation in -short mode")
		}
		ctx := context.Background()
		s, _ := seed1Store(t)
		links, err := s.Links(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fails, err := s.Failures(ctx)
		if err != nil {
			t.Fatal(err)
		}
		trans, err := s.Transitions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := s.Messages(ctx)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := s.Flaps(ctx, store.SourceSyslog)
		if err != nil {
			t.Fatal(err)
		}
		if len(links) == 0 || len(fails) == 0 || len(trans) == 0 || len(msgs) == 0 || len(eps) == 0 {
			t.Fatalf("store too empty to compare on: %d links, %d failures, %d transitions, %d messages, %d episodes",
				len(links), len(fails), len(trans), len(msgs), len(eps))
		}
		checkBodies(t, links, fails, trans, msgs, eps)

		// The bodies the store streams are the slices' bodies.
		var b api.Body
		for _, c := range []struct {
			name  string
			build func() error
			want  []byte
		}{
			{"failures", func() error { return b.Failures(ctx, s) }, refEncode(t, FailuresBody(fails))},
			{"transitions", func() error { return b.Transitions(ctx, s) }, refEncode(t, TransitionsBody(trans))},
			{"messages", func() error { return b.Messages(ctx, s) }, refEncode(t, MessagesBody(msgs))},
		} {
			if err := c.build(); err != nil {
				t.Fatal(err)
			}
			diffBody(t, c.name+" from the store", b.Bytes(), c.want)
		}
	})
}

// seed1Store writes the seed-1 14-day campaign's store and opens it.
func seed1Store(t *testing.T) (*store.Store, netfail.SimulationConfig) {
	t.Helper()
	dir := t.TempDir()
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := netfail.SimulationConfig{Seed: 1, Start: start, End: start.AddDate(0, 0, 14)}
	if _, err := netfail.Run(context.Background(), cfg, netfail.WithStoreDir(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

// TestServedBodiesMatchEncodingJSON: on the seed-1 14-day store, every
// list endpoint asked with every query parameter — 240 seeded URLs —
// serves, behind a Content-Length that is its length, exactly what
// encoding/json makes of the slice query's records.
func TestServedBodiesMatchEncodingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	s, cfg := seed1Store(t)
	man := s.Manifest()
	mux := api.NewMux(api.Options{Store: s})
	rng := rand.New(rand.NewSource(34))
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	maybe := func(q url.Values, name string, v func() string) {
		if rng.Intn(2) == 0 {
			q.Set(name, v())
		}
	}
	link := func() string { return string(man.Links[rng.Intn(len(man.Links))].ID) }
	window := func() string { // a window start; from before the campaign to past its end
		span := cfg.End.Sub(cfg.Start) + 48*time.Hour
		return cfg.Start.Add(-24*time.Hour + time.Duration(rng.Int63n(int64(span)))).Truncate(time.Second).Format(time.RFC3339)
	}
	params, answered := map[string]int{}, 0
	for i := 0; i < 240; i++ {
		q := url.Values{}
		resource := []string{"links", "failures", "transitions", "messages", "flaps"}[i%5]
		switch resource {
		case "failures":
			maybe(q, "link", link)
			maybe(q, "source", func() string { return pick("syslog", "isis") })
		case "transitions":
			maybe(q, "link", link)
			maybe(q, "stream", func() string {
				return pick("syslog-adj", "syslog-per-router", "syslog-physical", "is-reach", "ip-reach")
			})
			maybe(q, "dir", func() string { return pick("down", "up") })
			maybe(q, "kind", func() string { return pick("isis-adj", "physical", "lineproto", "is-reach", "ip-reach") })
			maybe(q, "reporter", func() string { return man.Reporters[rng.Intn(len(man.Reporters))] })
		case "messages":
			maybe(q, "host", func() string { return man.Hosts[rng.Intn(len(man.Hosts))] })
			maybe(q, "contains", func() string { return pick("UPDOWN", "ADJCHANGE", "down", "Gi0/", "<", "%") })
		case "flaps":
			q.Set("source", pick("syslog", "isis"))
			maybe(q, "link", link)
		}
		if resource != "links" {
			if rng.Intn(2) == 0 {
				from := window()
				ft, _ := time.Parse(time.RFC3339, from)
				q.Set("from", from)
				q.Set("to", ft.Add(time.Duration(1+rng.Intn(7*24*3600))*time.Second).Format(time.RFC3339))
			}
			maybe(q, "limit", func() string { return pick("0", "1", "2", "7", "40", "1000") })
		}
		for name := range q {
			params[name]++
		}

		opts, err := api.ParseQuery(q.Get)
		if err != nil {
			t.Fatal(err)
		}
		var want any
		switch resource {
		case "links":
			links, err := s.Links(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want = LinksBody(links)
		case "failures":
			recs, err := s.Failures(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want = FailuresBody(recs)
		case "transitions":
			recs, err := s.Transitions(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want = TransitionsBody(recs)
		case "messages":
			recs, err := s.Messages(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want = MessagesBody(recs)
		case "flaps":
			src, _ := store.ParseSource(q.Get("source"))
			eps, err := s.Flaps(ctx, src, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want = EpisodesBody(src, eps)
		}

		target := "/api/v1/" + resource + "?" + q.Encode()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", target, cl, rec.Body.Len())
		}
		diffBody(t, target, rec.Body.Bytes(), refEncode(t, want))
		if !bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"count":0,`)) {
			answered++
		}
	}
	if answered < 120 {
		t.Errorf("only %d of 240 URLs have records in their answer", answered)
	}
	for _, name := range []string{"link", "source", "stream", "dir", "kind", "reporter", "host", "contains", "from", "to", "limit"} {
		if params[name] == 0 {
			t.Errorf("no URL asked with %s", name)
		}
	}
}

// TestCatalogNamesServeAsEncodingJSON: a store whose link IDs,
// reporters and hosts need every escape — the quote, the backslash,
// the HTML three, a control byte, U+2028 and invalid UTF-8 (which the
// manifest stores as U+FFFD, as encoding/json writes it) — serves,
// through the mux's quoted catalog and the day cache, exactly what
// encoding/json makes of the slice query's records, on every list
// endpoint. Message lines, never catalog names, take the escaping scan
// with the same bytes.
func TestCatalogNamesServeAsEncodingJSON(t *testing.T) {
	names := []string{
		"plain-name", `quote " mark`, `back\slash`, "<html> & amp",
		"ctl \x01 byte", "line\u2028sep", "bad \xff utf8",
	}
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	a := &core.Analysis{In: core.Input{Start: start, End: start.AddDate(0, 0, 4), FlapGap: 10 * time.Minute}}
	dir := t.TempDir()
	w, err := store.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		a.AnalyzedLinks = append(a.AnalyzedLinks, &topo.Link{ID: topo.LinkID(name), Class: topo.LinkClass(i % 2)})
		// Each link fails twice a day, the first failure crossing
		// midnight, at whole seconds, milliseconds and nanoseconds.
		for day := 0; day < 3; day++ {
			at := start.AddDate(0, 0, day).Add(-time.Duration(i+1) * time.Minute)
			for j, f := range []trace.Failure{
				{Link: topo.LinkID(name), Start: at, End: at.Add(time.Duration(2*i+3) * time.Minute)},
				{Link: topo.LinkID(name), Start: at.Add(7*time.Hour + 3*time.Millisecond), End: at.Add(7*time.Hour + time.Second + 5)},
			} {
				if j%2 == day%2 {
					a.SyslogFailures = append(a.SyslogFailures, f)
				} else {
					a.ISISFailures = append(a.ISISFailures, f)
				}
				for k, tm := range []time.Time{f.Start, f.End} {
					a.SyslogAdj = append(a.SyslogAdj, trace.Transition{Time: tm, Link: f.Link, Dir: trace.Direction(k),
						Kind: trace.KindISISAdj, Reporter: names[(i+k)%len(names)]})
				}
			}
		}
	}
	for i := 0; i < 4*len(names); i++ {
		host := names[i%len(names)]
		line := "<189>" + host + ` %LINK-3-UPDOWN: "x" \ <y> & ` + names[(i+1)%len(names)]
		if err := w.AppendMessage(start.Add(time.Duration(i)*37*time.Minute).UnixMilli(), host, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteAnalysisTables(a, &core.Tables{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	man := s.Manifest()
	mux := api.NewMux(api.Options{Store: s})
	check := func(resource string, q url.Values, want any) {
		t.Helper()
		target := "/api/v1/" + resource + "?" + q.Encode()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
		if bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"count":0,`)) && resource != "messages" {
			t.Errorf("%s: no records to compare", target)
		}
		diffBody(t, target, rec.Body.Bytes(), refEncode(t, want))
	}
	must := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	check("links", nil, LinksBody(man.Links))
	check("failures", nil, FailuresBody(must(s.Failures(ctx)).([]store.FailureRecord)))
	check("transitions", nil, TransitionsBody(must(s.Transitions(ctx)).([]store.TransitionRecord)))
	check("messages", nil, MessagesBody(must(s.Messages(ctx)).([]store.MessageRecord)))
	for _, l := range man.Links {
		q := url.Values{"link": {string(l.ID)}}
		check("failures", q, FailuresBody(must(s.Failures(ctx, store.WithLink(l.ID))).([]store.FailureRecord)))
		check("transitions", q, TransitionsBody(must(s.Transitions(ctx, store.WithLink(l.ID))).([]store.TransitionRecord)))
		for _, src := range []store.Source{store.SourceSyslog, store.SourceISIS} {
			q := url.Values{"link": {string(l.ID)}, "source": {src.String()}}
			check("flaps", q, EpisodesBody(src, must(s.Flaps(ctx, src, store.WithLink(l.ID))).([]trace.Episode)))
		}
	}
	for _, r := range man.Reporters {
		check("transitions", url.Values{"reporter": {r}},
			TransitionsBody(must(s.Transitions(ctx, store.WithReporter(r))).([]store.TransitionRecord)))
	}
	for _, h := range man.Hosts {
		check("messages", url.Values{"host": {h}}, MessagesBody(must(s.Messages(ctx, store.WithHost(h))).([]store.MessageRecord)))
	}
	if len(man.Links) != len(names) || len(man.Reporters) != len(names) || len(man.Hosts) != len(names) {
		t.Errorf("catalogs hold %d links, %d reporters, %d hosts; want %d each",
			len(man.Links), len(man.Reporters), len(man.Hosts), len(names))
	}
}
