// Package api is the versioned HTTP query surface shared by
// netfail-serve, netfail-query serve, and netfail-listener: every
// /api/v1 endpoint speaks JSON, reports failures through one error
// envelope, and honors per-request cancellation.
//
// The surface is read-only by construction — the store is written
// once at the end of an analysis run and queried forever after, so
// every endpoint is GET (HEAD is accepted and returns headers only,
// per net/http's automatic handling).
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"netfail/internal/obs"
	"netfail/internal/store"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Options wires the mux's data sources. Any field may be nil: a nil
// Registry drops the metrics and pprof endpoints, a nil Store makes
// the query endpoints answer 404 no_store (the daemon may be serving
// live without an attached store), nil Ready/Healthz report a flat 200.
type Options struct {
	// Registry backs /api/v1/metrics and mounts /debug/pprof/.
	Registry *obs.Registry
	// Store backs the query endpoints.
	Store *store.Store
	// Ready is the readiness probe (nil means always ready).
	Ready http.Handler
	// Healthz is the liveness probe (nil means always healthy).
	Healthz http.Handler
}

// NewMux builds the versioned API mux:
//
//	GET /api/v1/links
//	GET /api/v1/failures    ?link&source&from&to&limit
//	GET /api/v1/transitions ?link&stream&dir&kind&reporter&from&to&limit
//	GET /api/v1/messages    ?host&contains&from&to&limit
//	GET /api/v1/flaps       ?source&link&from&to
//	GET /api/v1/tables/{n}
//	GET /api/v1/store
//	GET /api/v1/metrics
//	GET /api/v1/health
//	GET /api/v1/ready
//
// plus the net/http/pprof profiles under /debug/pprof/ when a registry
// is attached. Errors are always the shared envelope
// {"error":{"code":..., "message":...}}.
func NewMux(o Options) *http.ServeMux {
	mux := http.NewServeMux()
	if o.Registry != nil {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	get := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", "GET, HEAD")
				writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
					fmt.Sprintf("%s is read-only: use GET", r.URL.Path))
				return
			}
			h(w, r)
		})
	}
	withStore := func(h func(*store.Store, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if o.Store == nil {
				writeError(w, http.StatusNotFound, "no_store",
					"no failure store attached to this endpoint")
				return
			}
			h(o.Store, w, r)
		}
	}

	get("/api/v1/links", withStore(handleLinks))
	get("/api/v1/failures", withStore(handleFailures))
	get("/api/v1/transitions", withStore(handleTransitions))
	get("/api/v1/messages", withStore(handleMessages))
	get("/api/v1/flaps", withStore(handleFlaps))
	get("/api/v1/tables/{n}", withStore(handleTable))
	get("/api/v1/store", withStore(handleStore))

	get("/api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if o.Registry == nil {
			writeError(w, http.StatusNotFound, "no_metrics", "no metrics registry attached")
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, o.Registry.String())
	})
	probe := func(h http.Handler) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if h != nil {
				h.ServeHTTP(w, r)
				return
			}
			fmt.Fprintln(w, "ok")
		}
	}
	get("/api/v1/health", probe(o.Healthz))
	get("/api/v1/ready", probe(o.Ready))
	return mux
}

// Connection limits of every netfail HTTP endpoint. There is no write
// timeout: pprof profiles and full scans are legitimately long.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// NewServer returns the HTTP server the binaries mount the API on:
// NewMux(o) on addr behind the limits above, so a client that stalls
// mid-request is disconnected instead of holding its connection open.
func NewServer(addr string, o Options) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           NewMux(o),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// errorBody is the shared error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return // client went away; headers are already out
	}
}

// queryError maps a store query failure onto the envelope: a canceled
// or timed-out request is the client's doing, anything else is the
// store's.
func queryError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		r.Context().Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "canceled", "request canceled")
		return
	}
	writeError(w, http.StatusInternalServerError, "store_error", err.Error())
}

// ParamError is a malformed query parameter, named: the handlers
// answer it with the 400 bad_param envelope, netfail-query prints it
// as "-name: ...".
type ParamError struct {
	Name string
	Err  error
}

func (e *ParamError) Error() string { return fmt.Sprintf("parameter %q: %v", e.Name, e.Err) }

// badParam writes the envelope for a malformed query parameter.
func badParam(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, "bad_param", err.Error())
}

// ParseQuery translates the one query vocabulary — link source stream
// dir kind reporter host contains limit from to, the URL parameters of
// the query endpoints and the flags of netfail-query's verbs — into
// store options. get returns a parameter's value, "" when it was not
// given; a malformed one comes back as a *ParamError.
func ParseQuery(get func(name string) string) ([]store.Option, error) {
	var opts []store.Option
	if v := get("link"); v != "" {
		opts = append(opts, store.WithLink(topo.LinkID(v)))
	}
	if v := get("source"); v != "" {
		src, err := store.ParseSource(v)
		if err != nil {
			return nil, &ParamError{"source", err}
		}
		opts = append(opts, store.WithSource(src))
	}
	if v := get("stream"); v != "" {
		st, err := store.ParseStream(v)
		if err != nil {
			return nil, &ParamError{"stream", err}
		}
		opts = append(opts, store.WithStream(st))
	}
	if v := get("dir"); v != "" {
		switch v {
		case "down":
			opts = append(opts, store.WithDirection(trace.Down))
		case "up":
			opts = append(opts, store.WithDirection(trace.Up))
		default:
			return nil, &ParamError{"dir", fmt.Errorf("want \"down\" or \"up\", got %q", v)}
		}
	}
	if v := get("kind"); v != "" {
		k, err := trace.ParseKind(v)
		if err != nil {
			return nil, &ParamError{"kind", err}
		}
		opts = append(opts, store.WithKind(k))
	}
	if v := get("reporter"); v != "" {
		opts = append(opts, store.WithReporter(v))
	}
	if v := get("host"); v != "" {
		opts = append(opts, store.WithHost(v))
	}
	if v := get("contains"); v != "" {
		opts = append(opts, store.WithContains(v))
	}
	if v := get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, &ParamError{"limit", fmt.Errorf("want a non-negative integer, got %q", v)}
		}
		opts = append(opts, store.WithLimit(n))
	}
	from, to := get("from"), get("to")
	switch {
	case from != "" && to != "":
		ft, err := time.Parse(time.RFC3339, from)
		if err != nil {
			return nil, &ParamError{"from", err}
		}
		tt, err := time.Parse(time.RFC3339, to)
		if err != nil {
			return nil, &ParamError{"to", err}
		}
		if !ft.Before(tt) {
			return nil, &ParamError{"to", fmt.Errorf("window end %s is not after start %s", to, from)}
		}
		opts = append(opts, store.WithWindow(ft, tt))
	case from != "" || to != "":
		name := "from"
		if to != "" {
			name = "to"
		}
		return nil, &ParamError{name, errors.New("from and to must be given together (RFC 3339)")}
	}
	return opts, nil
}

// Wire shapes. Enumerations travel as their string names, never their
// storage ordinals — the JSON surface is versioned, the binary format
// is not part of it.

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

func handleLinks(s *store.Store, w http.ResponseWriter, r *http.Request) {
	links, err := s.Links(r.Context())
	if err != nil {
		queryError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, LinksBody(links))
}

// serveList answers a filtered list endpoint: the URL parameters
// through ParseQuery, the store query, the resource's body.
func serveList[R any](w http.ResponseWriter, r *http.Request,
	query func(context.Context, ...store.Option) ([]R, error), body func([]R) any) {
	opts, err := ParseQuery(r.URL.Query().Get)
	if err != nil {
		badParam(w, err)
		return
	}
	recs, err := query(r.Context(), opts...)
	if err != nil {
		queryError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, body(recs))
}

func handleFailures(s *store.Store, w http.ResponseWriter, r *http.Request) {
	serveList(w, r, s.Failures, FailuresBody)
}

func handleTransitions(s *store.Store, w http.ResponseWriter, r *http.Request) {
	serveList(w, r, s.Transitions, TransitionsBody)
}

func handleMessages(s *store.Store, w http.ResponseWriter, r *http.Request) {
	serveList(w, r, s.Messages, MessagesBody)
}

func handleFlaps(s *store.Store, w http.ResponseWriter, r *http.Request) {
	srcParam := r.URL.Query().Get("source")
	if srcParam == "" {
		badParam(w, &ParamError{"source", errors.New("required: \"syslog\" or \"isis\"")})
		return
	}
	src, err := store.ParseSource(srcParam)
	if err != nil {
		badParam(w, &ParamError{"source", err})
		return
	}
	serveList(w, r, func(ctx context.Context, opts ...store.Option) ([]trace.Episode, error) {
		return s.Flaps(ctx, src, opts...)
	}, func(eps []trace.Episode) any { return EpisodesBody(src, eps) })
}

func handleTable(s *store.Store, w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		badParam(w, &ParamError{"n", fmt.Errorf("want a table number, got %q", r.PathValue("n"))})
		return
	}
	table, err := s.Table(n)
	if err != nil {
		writeError(w, http.StatusNotFound, "no_such_table", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": n, "data": table})
}

// handleStore summarizes the opened store: the manifest's campaign
// metadata and record counts, plus any salvage accumulated so far when
// the store is lenient.
func handleStore(s *store.Store, w http.ResponseWriter, r *http.Request) {
	man := s.Manifest()
	out := map[string]any{
		"format":  man.Format,
		"seed":    man.Seed,
		"start":   man.Start,
		"end":     man.End,
		"links":   len(man.Links),
		"hosts":   len(man.Hosts),
		"lenient": s.Lenient(),
		"records": map[string]int64{
			"failures":    man.Failures.Records,
			"transitions": man.Transitions.Records,
			"messages":    messageRecords(man),
		},
	}
	if s.Lenient() {
		salv := map[string]string{}
		for _, cs := range s.Salvage() {
			salv[cs.Name] = cs.Report.String()
		}
		out["salvage"] = salv
	}
	writeJSON(w, http.StatusOK, out)
}

func messageRecords(man *store.Manifest) int64 {
	var n int64
	for _, m := range man.Messages {
		n += m.Records
	}
	return n
}
