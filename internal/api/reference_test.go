package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"netfail"
	"netfail/internal/api"
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
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"links", api.AppendLinks(nil, links), refEncode(t, LinksBody(links))},
		{"failures", api.AppendFailures(nil, fails), refEncode(t, FailuresBody(fails))},
		{"transitions", api.AppendTransitions(nil, trans), refEncode(t, TransitionsBody(trans))},
		{"messages", api.AppendMessages(nil, msgs), refEncode(t, MessagesBody(msgs))},
		{"episodes syslog", api.AppendEpisodes(nil, store.SourceSyslog, eps), refEncode(t, EpisodesBody(store.SourceSyslog, eps))},
		{"episodes isis", api.AppendEpisodes(nil, store.SourceISIS, eps), refEncode(t, EpisodesBody(store.SourceISIS, eps))},
	} {
		if !bytes.Equal(c.got, c.want) {
			i := 0
			for i < len(c.got) && i < len(c.want) && c.got[i] == c.want[i] {
				i++
			}
			t.Errorf("%s: append encoder differs from encoding/json at byte %d of %d/%d\n got: %.120q\nwant: %.120q",
				c.name, i, len(c.got), len(c.want), c.got[max(0, i-40):], c.want[max(0, i-40):])
		}
	}
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

	t.Run("seed-1 14-day store", func(t *testing.T) {
		if testing.Short() {
			t.Skip("campaign simulation in -short mode")
		}
		ctx, dir := context.Background(), t.TempDir()
		start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
		cfg := netfail.SimulationConfig{Seed: 1, Start: start, End: start.AddDate(0, 0, 14)}
		if _, err := netfail.Run(ctx, cfg, netfail.WithStoreDir(dir)); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
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
	})
}
