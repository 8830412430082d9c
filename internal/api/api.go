// Package api is the versioned HTTP query surface shared by
// netfail-serve and netfail-query serve: every
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
	"unicode/utf8"

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

// writeJSON answers with v's compact encoding. The body is complete
// before the header goes out, so a value that does not encode is the
// 500 envelope and never a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode_error", err.Error())
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody sends a finished body in one Write behind its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client that went away
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

// The list bodies, one append-style encoder per resource: what the
// endpoint serves and what netfail-query -json prints. Each appends
// {"count":n,"<resource>":[...]} and a newline — compact, count first,
// byte for byte what encoding/json makes of the same records (the
// equivalence test holds them to it), without a wire copy of the
// slice or reflection over it; pipe through `jq .` to read one.
// Enumerations travel as their string names, never their storage
// ordinals — the JSON surface is versioned, the binary format is not
// part of it.

// appendList frames a list body around one's encoding of each record's
// members.
func appendList[R any](dst []byte, resource string, recs []R, one func([]byte, R) []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"count":`...), int64(len(recs)), 10)
	dst = append(append(append(dst, `,"`...), resource...), `":[`...)
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(one(append(dst, '{'), r), '}')
	}
	return append(dst, "]}\n"...)
}

// appendKey appends a member's name, after a comma unless the member
// opens its object.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(append(append(dst, '"'), key...), `":`...)
}

// appendTime appends a time member as encoding/json does: RFC 3339,
// sub-second digits when there are any. Stored times are UnixNano and
// UnixMilli values, inside the years 0-9999 that format needs.
func appendTime(dst []byte, key string, t time.Time) []byte {
	return append(t.AppendFormat(append(appendKey(dst, key), '"'), time.RFC3339Nano), '"')
}

const hexDigits = "0123456789abcdef"

// plain marks the ASCII bytes a JSON string carries as they are:
// everything printable but the quote, the backslash and the three
// encoding/json escapes for HTML's sake.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends a string member with encoding/json's escaping,
// the HTML-safe one its Encoder defaults to: a syslog line is whatever
// bytes a router sent.
func appendString(dst []byte, key, s string) []byte {
	dst = append(appendKey(dst, key), '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf && plain[b] {
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if invalid := c == utf8.RuneError && size == 1; c >= utf8.RuneSelf && c != '\u2028' && c != '\u2029' && !invalid {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', byte(c))
		case '\b':
			dst = append(dst, `\b`...)
		case '\f':
			dst = append(dst, `\f`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default: // a control byte, an HTML-significant one, U+2028/9, or U+FFFD for invalid UTF-8
			dst = append(dst, '\\', 'u', hexDigits[c>>12], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

func appendFailure(dst []byte, src store.Source, f trace.Failure) []byte {
	dst = appendString(dst, "source", src.String())
	dst = appendString(dst, "link", string(f.Link))
	return appendTime(appendTime(dst, "start", f.Start), "end", f.End)
}

// AppendLinks appends the /api/v1/links body.
func AppendLinks(dst []byte, links []store.LinkEntry) []byte {
	return appendList(dst, "links", links, func(dst []byte, l store.LinkEntry) []byte {
		return appendString(appendString(dst, "id", string(l.ID)), "class", l.Class.String())
	})
}

// AppendFailures appends the /api/v1/failures body.
func AppendFailures(dst []byte, recs []store.FailureRecord) []byte {
	return appendList(dst, "failures", recs, func(dst []byte, r store.FailureRecord) []byte {
		return appendFailure(dst, r.Source, r.Failure())
	})
}

// AppendTransitions appends the /api/v1/transitions body.
func AppendTransitions(dst []byte, recs []store.TransitionRecord) []byte {
	return appendList(dst, "transitions", recs, func(dst []byte, r store.TransitionRecord) []byte {
		dst = appendString(dst, "stream", r.Stream.String())
		dst = appendTime(dst, "time", r.Time)
		dst = appendString(dst, "link", string(r.Link))
		dst = appendString(dst, "dir", r.Dir.String())
		dst = appendString(dst, "kind", r.Kind.String())
		return appendString(dst, "reporter", r.Reporter)
	})
}

// AppendMessages appends the /api/v1/messages body.
func AppendMessages(dst []byte, recs []store.MessageRecord) []byte {
	return appendList(dst, "messages", recs, func(dst []byte, r store.MessageRecord) []byte {
		return appendString(appendString(appendTime(dst, "time", r.Time), "host", r.Host), "line", r.Line)
	})
}

// AppendEpisodes appends the /api/v1/flaps body for source src.
func AppendEpisodes(dst []byte, src store.Source, eps []trace.Episode) []byte {
	return appendList(dst, "episodes", eps, func(dst []byte, e trace.Episode) []byte {
		dst = appendString(dst, "link", string(e.Link))
		dst = appendTime(appendTime(dst, "start", e.Start()), "end", e.End())
		dst = strconv.AppendBool(appendKey(dst, "flap"), e.IsFlap())
		dst = append(appendKey(dst, "failures"), '[')
		for i, f := range e.Failures {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendFailure(append(dst, '{'), src, f), '}')
		}
		return append(dst, ']')
	})
}

func handleLinks(s *store.Store, w http.ResponseWriter, r *http.Request) {
	links, err := s.Links(r.Context())
	if err != nil {
		queryError(w, r, err)
		return
	}
	writeBody(w, http.StatusOK, AppendLinks(nil, links))
}

// serveList answers a filtered list endpoint: the URL parameters
// through ParseQuery, the store query, the resource's body.
func serveList[R any](w http.ResponseWriter, r *http.Request,
	query func(context.Context, ...store.Option) ([]R, error), body func([]byte, []R) []byte) {
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
	writeBody(w, http.StatusOK, body(nil, recs))
}

func handleFailures(s *store.Store, w http.ResponseWriter, r *http.Request) {
	serveList(w, r, s.Failures, AppendFailures)
}

func handleTransitions(s *store.Store, w http.ResponseWriter, r *http.Request) {
	serveList(w, r, s.Transitions, AppendTransitions)
}

func handleMessages(s *store.Store, w http.ResponseWriter, r *http.Request) {
	serveList(w, r, s.Messages, AppendMessages)
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
	}, func(dst []byte, eps []trace.Episode) []byte { return AppendEpisodes(dst, src, eps) })
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
