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
	"sync"
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
//	GET /api/v1/flaps       ?source&link&from&to&limit
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
	var srv *served
	if o.Store != nil {
		srv = &served{o.Store, quoteNames(o.Store.Manifest())}
	}
	withStore := func(h func(*served, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if srv == nil {
				writeError(w, http.StatusNotFound, "no_store",
					"no failure store attached to this endpoint")
				return
			}
			h(srv, w, r)
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

// Body is a list endpoint's response and netfail-query -json's output:
// {"count":n,"<resource>":[...]} and a newline, compact, byte for byte
// what encoding/json makes of the records (pipe through `jq .` to read
// one). Enumerations travel as their names, never their storage
// ordinals. The zero value is ready; a Body reused keeps its buffer, so
// a body streamed from the store allocates nothing once it has grown
// and quoted that store's names.
type Body struct {
	buf   []byte
	start int // the body's first byte: its head ends where the records begin
	n     int // records appended so far

	// names quotes the catalog names of store, the last store b was
	// built from; day is the date of the last time b wrote.
	store *store.Store
	names *quotedNames
	day   dayCache
}

// quotedNames is a store's link, reporter and host catalogs with each
// name quoted as a JSON string, indexed by catalog ordinal: a body
// writes a stored record's names by the ordinals the store hands it,
// with neither appendString's scan nor a lookup by name.
type quotedNames struct{ links, reporters, hosts []string }

func quoteNames(man *store.Manifest) *quotedNames {
	q := &quotedNames{}
	for _, l := range man.Links {
		q.links = append(q.links, quoted(string(l.ID)))
	}
	for _, name := range man.Reporters {
		q.reporters = append(q.reporters, quoted(name))
	}
	for _, name := range man.Hosts {
		q.hosts = append(q.hosts, quoted(name))
	}
	return q
}

// use makes s's quoted catalog names the ones b's records draw on,
// quoting them unless b already has them, and returns them.
func (b *Body) use(s *store.Store) *quotedNames {
	if b.store != s {
		b.store, b.names = s, quoteNames(s.Manifest())
	}
	return b.names
}

// Bytes returns the body, valid until b is built again.
func (b *Body) Bytes() []byte { return b.buf[b.start:] }

// build makes b the body of the records fill appends (each through
// next), behind room reserved for the head, which is written into the
// end of that room once the count is known. If fill fails, b holds an
// empty body and the error is returned.
func (b *Body) build(resource string, fill func() error) error {
	room := len(`{"count":`) + len("9223372036854775807") + len(`,"`) + len(resource) + len(`":[`)
	b.buf, b.start, b.n = append(b.buf[:0], make([]byte, room)...), 0, 0
	if err := fill(); err != nil {
		b.buf = b.buf[:0]
		return err
	}
	b.buf = append(b.buf, "]}\n"...)
	var h [64]byte
	head := strconv.AppendInt(append(h[:0], `{"count":`...), int64(b.n), 10)
	head = append(append(append(head, `,"`...), resource...), `":[`...)
	b.start = room - len(head)
	copy(b.buf[b.start:], head)
	return nil
}

// next counts one more record and returns the buffer to append it to,
// behind a comma unless it is the first.
func (b *Body) next() []byte {
	if b.n++; b.n > 1 {
		b.buf = append(b.buf, ',')
	}
	return b.buf
}

// Links makes b the /api/v1/links body.
func (b *Body) Links(links []store.LinkEntry) {
	_ = b.build("links", func() error {
		for _, l := range links {
			dst := appendString(append(b.next(), '{'), "id", string(l.ID))
			b.buf = append(appendName(dst, "class", l.Class.String()), '}')
		}
		return nil
	})
}

// Failures makes b the /api/v1/failures body of the failures matching
// opts, encoded as s reads them.
func (b *Body) Failures(ctx context.Context, s *store.Store, opts ...store.Option) error {
	names := b.use(s)
	return b.build("failures", func() error {
		return s.EachFailure(ctx, func(r *store.FailureRecord, link uint32) error {
			dst := append(append(b.next(), failureHead(int(r.Source))...), names.links[link]...)
			b.buf = append(b.span(dst, r.Start, r.End), '}')
			return nil
		}, opts...)
	})
}

// Transitions makes b the /api/v1/transitions body of the transitions
// matching opts, encoded as s reads them.
func (b *Body) Transitions(ctx context.Context, s *store.Store, opts ...store.Option) error {
	names := b.use(s)
	return b.build("transitions", func() error {
		return s.EachTransition(ctx, func(r *store.TransitionRecord, link, reporter uint32) error {
			b.buf = b.transition(b.next(), r, names.links[link], names.reporters[reporter])
			return nil
		}, opts...)
	})
}

// Messages makes b the /api/v1/messages body of the syslog lines
// matching opts, encoded as s reads them.
func (b *Body) Messages(ctx context.Context, s *store.Store, opts ...store.Option) error {
	names := b.use(s)
	return b.build("messages", func() error {
		return s.EachMessage(ctx, func(r *store.MessageRecord, host uint32) error {
			b.buf = b.message(b.next(), r, names.hosts[host])
			return nil
		}, opts...)
	})
}

// Episodes makes b the /api/v1/flaps body of source src's episodes.
func (b *Body) Episodes(src store.Source, eps []trace.Episode) {
	_ = b.build("episodes", func() error {
		for _, e := range eps {
			dst := appendString(append(b.next(), '{'), "link", string(e.Link))
			dst = strconv.AppendBool(appendKey(b.span(dst, e.Start(), e.End()), "flap"), e.IsFlap())
			dst = append(appendKey(dst, "failures"), '[')
			for i, f := range e.Failures {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendQuoted(append(dst, failureHead(int(src))...), string(f.Link))
				dst = append(b.span(dst, f.Start, f.End), '}')
			}
			b.buf = append(dst, "]}"...)
		}
		return nil
	})
}

// Precomposed members: each enumeration value's name with the
// constant keys and punctuation around it, so a record's fixed members
// are one copy each. A transition's dir and kind are one fragment,
// picked by direction (Down's, or Up's) and then by kind.
var (
	failureHead = precompose(2, func(v int) string {
		return `{"source":"` + store.Source(v).String() + `","link":`
	})
	transitionHead = precompose(int(store.StreamIPReach)+1, func(v int) string {
		return `{"stream":"` + store.Stream(v).String() + `","time":"`
	})
	transitionMid = [2]func(int) string{dirKind(trace.Down), dirKind(trace.Up)}
)

func dirKind(d trace.Direction) func(int) string {
	return precompose(int(trace.KindIPReach)+1, func(v int) string {
		return `,"dir":"` + d.String() + `","kind":"` + trace.Kind(v).String() + `","reporter":`
	})
}

// precompose returns compose with its strings for the values 0 to n-1
// composed once; any other value it composes on every call.
func precompose(n int, compose func(v int) string) func(v int) string {
	of := make([]string, n)
	for v := range of {
		of[v] = compose(v)
	}
	return func(v int) string {
		if uint(v) < uint(n) {
			return of[v]
		}
		return compose(v)
	}
}

// transition appends r's object, its link and reporter names given
// quoted.
func (b *Body) transition(dst []byte, r *store.TransitionRecord, link, reporter string) []byte {
	dst = b.day.appendStamp(append(dst, transitionHead(int(r.Stream))...), r.Time)
	dst = append(append(dst, `,"link":`...), link...)
	mid := transitionMid[0] // trace.Direction names every value but Up "down"
	if r.Dir == trace.Up {
		mid = transitionMid[1]
	}
	return append(append(append(dst, mid(int(r.Kind))...), reporter...), '}')
}

// message appends r's object, its host name given quoted.
func (b *Body) message(dst []byte, r *store.MessageRecord, host string) []byte {
	dst = append(b.day.appendStamp(append(dst, `{"time":"`...), r.Time), `,"host":`...)
	return append(appendString(append(dst, host...), "line", r.Line), '}')
}

// span appends a failure's or an episode's start and end members.
func (b *Body) span(dst []byte, start, end time.Time) []byte {
	dst = b.day.appendStamp(append(dst, `,"start":"`...), start)
	return b.day.appendStamp(append(dst, `,"end":"`...), end)
}

// appendKey appends a member's name, after a comma unless the member
// opens its object.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(append(append(dst, '"'), key...), `":`...)
}

// appendStamp appends a time's string value, past its opening quote,
// as encoding/json writes it: RFC 3339, sub-second digits when there
// are any. A UTC time inside the years 0-9999 that format needs —
// every stored time — is written digit by digit; any other falls back
// to time.Time.AppendFormat.
func appendStamp(dst []byte, t time.Time) []byte {
	y, mo, d := t.Date()
	if t.Location() != time.UTC || y < 0 || y > 9999 {
		return append(t.AppendFormat(dst, time.RFC3339Nano), '"')
	}
	h, mi, s := t.Clock()
	return appendClock(appendDate(dst, y, int(mo), d), h*3600+mi*60+s, t.Nanosecond())
}

// dayCache is the date of the UTC day a body last wrote a time in, so
// the records of one day derive it once.
type dayCache struct {
	start, end int64    // the day in unix seconds, [start, end); empty until filled
	date       [11]byte // "2006-01-02T"
}

// appendStamp writes what the package's appendStamp does, the date
// from c, refilled when t falls on another UTC day.
func (c *dayCache) appendStamp(dst []byte, t time.Time) []byte {
	if t.Location() != time.UTC {
		return appendStamp(dst, t)
	}
	sec := t.Unix()
	if sec < c.start || sec >= c.end {
		y, mo, d := t.Date()
		if y < 0 || y > 9999 {
			return appendStamp(dst, t)
		}
		c.start = sec - (sec%86400+86400)%86400
		c.end = c.start + 86400
		appendDate(c.date[:0], y, int(mo), d)
	}
	return appendClock(append(dst, c.date[:]...), int(sec-c.start), t.Nanosecond())
}

// appendDate appends "YYYY-MM-DDT" for a year in 0-9999.
func appendDate(dst []byte, y, mo, d int) []byte {
	return append(dst, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+mo/10), byte('0'+mo%10), '-', byte('0'+d/10), byte('0'+d%10), 'T')
}

// appendClock appends the time of day sec seconds and ns nanoseconds
// after midnight, then the zone and the closing quote. A whole
// millisecond — every stored stamp — writes its three digits directly.
func appendClock(dst []byte, sec, ns int) []byte {
	h, mi, s := sec/3600, sec/60%60, sec%60
	dst = append(dst, byte('0'+h/10), byte('0'+h%10), ':', byte('0'+mi/10), byte('0'+mi%10), ':', byte('0'+s/10), byte('0'+s%10))
	if ns != 0 { // nine digits behind the point, less the trailing zeros
		if ms := ns / 1e6; ms*1e6 == ns {
			dst = append(dst, '.', byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10))
		} else {
			dot := len(dst)
			dst = strconv.AppendInt(dst, int64(1e9+ns), 10)
			dst[dot] = '.'
		}
		for dst[len(dst)-1] == '0' {
			dst = dst[:len(dst)-1]
		}
	}
	return append(dst, 'Z', '"')
}

// appendName appends an enumeration's name: a fixed string of plain
// ASCII (TestEnumNamesNeedNoEscape), so it skips appendString's scan.
func appendName(dst []byte, key, name string) []byte {
	return append(append(append(appendKey(dst, key), '"'), name...), '"')
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
	return appendQuoted(appendKey(dst, key), s)
}

// quoted returns name as a JSON string, escaped as appendString says.
func quoted(name string) string { return string(appendQuoted(nil, name)) }

// appendQuoted appends s as a JSON string, escaped as appendString
// says.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
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

// bodies holds the list handlers' buffers for reuse.
var bodies = sync.Pool{New: func() any { return new(Body) }}

// maxPooledBody is the largest buffer a handler hands back for reuse: a
// month's scan fits, and a whole campaign's does not stay allocated.
const maxPooledBody = 8 << 20

// served is the store a mux answers from, with its catalog names
// quoted once for every body it feeds.
type served struct {
	*store.Store
	names *quotedNames
}

// serveBody answers with the body build makes from s in a pooled
// buffer. The body is whole before the header goes out, so a store
// error mid-read is the error envelope, never a 200 cut short.
func serveBody(w http.ResponseWriter, r *http.Request, s *served, build func(*Body) error) {
	b := bodies.Get().(*Body)
	b.store, b.names = s.Store, s.names
	if err := build(b); err != nil {
		queryError(w, r, err)
	} else {
		writeBody(w, http.StatusOK, b.Bytes())
	}
	b.store, b.names = nil, nil // the pool holds no store
	if cap(b.buf) <= maxPooledBody {
		bodies.Put(b)
	}
}

func handleLinks(s *served, w http.ResponseWriter, r *http.Request) {
	serveBody(w, r, s, func(b *Body) error {
		links, err := s.Links(r.Context())
		if err == nil {
			b.Links(links)
		}
		return err
	})
}

// serveList answers a filtered list endpoint: the URL parameters
// through ParseQuery, the store's records streamed into the body.
func serveList(s *served, w http.ResponseWriter, r *http.Request,
	body func(*Body, context.Context, *store.Store, ...store.Option) error) {
	opts, err := ParseQuery(r.URL.Query().Get)
	if err != nil {
		badParam(w, err)
		return
	}
	serveBody(w, r, s, func(b *Body) error { return body(b, r.Context(), s.Store, opts...) })
}

func handleFailures(s *served, w http.ResponseWriter, r *http.Request) {
	serveList(s, w, r, (*Body).Failures)
}

func handleTransitions(s *served, w http.ResponseWriter, r *http.Request) {
	serveList(s, w, r, (*Body).Transitions)
}

func handleMessages(s *served, w http.ResponseWriter, r *http.Request) {
	serveList(s, w, r, (*Body).Messages)
}

func handleFlaps(s *served, w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	if params.Get("source") == "" {
		badParam(w, &ParamError{"source", errors.New("required: \"syslog\" or \"isis\"")})
		return
	}
	opts, err := ParseQuery(params.Get)
	if err != nil {
		badParam(w, err)
		return
	}
	src, _ := store.ParseSource(params.Get("source")) // ParseQuery accepted it
	serveBody(w, r, s, func(b *Body) error {
		eps, err := s.Flaps(r.Context(), src, opts...)
		if err == nil {
			b.Episodes(src, eps)
		}
		return err
	})
}

func handleTable(s *served, w http.ResponseWriter, r *http.Request) {
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
func handleStore(s *served, w http.ResponseWriter, r *http.Request) {
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
