package store

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"netfail/internal/capture"
	"netfail/internal/salvage"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Query carries one query's resolved filters. Build it with the
// functional options; the zero value matches everything.
type Query struct {
	link     *topo.LinkID
	source   *Source
	stream   *Stream
	dir      *trace.Direction
	kind     *trace.Kind
	reporter *string
	host     *string
	contains []byte
	from, to time.Time
	window   bool
	limit    int
}

// Option narrows a query.
type Option func(*Query)

// WithLink restricts results to one link.
func WithLink(id topo.LinkID) Option { return func(q *Query) { q.link = &id } }

// WithSource restricts failures to one reconstruction.
func WithSource(src Source) Option { return func(q *Query) { q.source = &src } }

// WithStream restricts transitions to one analysis stream.
func WithStream(st Stream) Option { return func(q *Query) { q.stream = &st } }

// WithDirection restricts transitions to one direction.
func WithDirection(d trace.Direction) Option { return func(q *Query) { q.dir = &d } }

// WithKind restricts transitions to one observation kind.
func WithKind(k trace.Kind) Option { return func(q *Query) { q.kind = &k } }

// WithReporter restricts transitions to one reporting router.
func WithReporter(r string) Option { return func(q *Query) { q.reporter = &r } }

// WithHost restricts messages to one emitting host.
func WithHost(h string) Option { return func(q *Query) { q.host = &h } }

// WithContains restricts messages to lines containing the substring.
func WithContains(sub string) Option { return func(q *Query) { q.contains = []byte(sub) } }

// WithWindow restricts results to a time window: transitions and
// messages with from <= t < to, failures overlapping [from, to) — the
// same interval conventions as the pipeline (trace.Failure.Overlaps).
func WithWindow(from, to time.Time) Option {
	return func(q *Query) { q.from, q.to, q.window = from, to, true }
}

// WithLimit caps the result count (0 means unlimited). Results arrive
// in the store's canonical order, so a limit returns a stable prefix.
func WithLimit(n int) Option { return func(q *Query) { q.limit = n } }

func resolveQuery(opts []Option) Query {
	var q Query
	for _, o := range opts {
		o(&q)
	}
	return q
}

// full reports whether the result set has hit the query's limit.
func (q *Query) full(n int) bool { return q.limit > 0 && n >= q.limit }

// seekMs is the timestamp a windowed read starts from: the millisecond
// before from, less slackMs for records stamped earlier than the
// instants they match (a failure is stamped at its start and overlaps
// the window until its end).
func (q *Query) seekMs(slackMs int64) int64 { return q.from.UnixMilli() - slackMs - 1 }

// clip narrows an ascending posting list to the frame offsets the
// sparse time index says the query's window can hold: [lo, hi), where
// lo is the offset of the entry a scan would seek to and hi that of
// the first entry stamped after the window's end. Records are in time
// order, so every frame before lo is stamped at or before seekMs and
// every frame from hi on after to. It is conservative by construction:
// a missing, empty or leniently truncated index clips less or nothing,
// and callers re-verify every record they decode.
func (q *Query) clip(post []int64, idx []capture.IndexEntry, slackMs int64) []int64 {
	if !q.window {
		return post
	}
	atOrAfter := func(e capture.IndexEntry) int {
		return sort.Search(len(post), func(i int) bool { return post[i] >= e.Offset })
	}
	if e, ok := capture.Locate(idx, q.seekMs(slackMs)); ok {
		post = post[atOrAfter(e):]
	}
	toMs := q.to.UnixMilli()
	if i := sort.Search(len(idx), func(i int) bool { return idx[i].TsMs > toMs }); i < len(idx) {
		post = post[:atOrAfter(idx[i])]
	}
	return post
}

// Links returns the link catalog — the analysis namespace the stored
// records reference.
func (s *Store) Links(ctx context.Context) ([]LinkEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return append([]LinkEntry(nil), s.man.Links...), nil
}

// Tables returns the precomputed agreement tables.
func (s *Store) Tables() *Tables { return &s.man.Tables }

// Table returns precomputed table n (1–7).
func (s *Store) Table(n int) (any, error) { return s.man.Tables.Table(n) }

// collected is a list query's slice form of what its visitor gathered:
// nil when the visit failed.
func collected[R any](out []R, err error) ([]R, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// yield counts a matching record fn was handed, passing on fn's error
// err, and ends the read once the query's limit is reached.
func (q *Query) yield(n *int, err error) error {
	if err != nil {
		return err
	}
	if *n++; q.full(*n) {
		return errStopScan
	}
	return nil
}

// Failures returns the failures EachFailure visits.
func (s *Store) Failures(ctx context.Context, opts ...Option) ([]FailureRecord, error) {
	var out []FailureRecord
	err := s.EachFailure(ctx, func(r *FailureRecord, _ uint32) error { out = append(out, *r); return nil }, opts...)
	return collected(out, err)
}

// EachFailure calls fn with each stored failure matching the options,
// in canonical store order, and returns the first error fn returns. fn
// is handed the record, valid only until it returns, and the link's
// catalog ordinal (an index into the manifest's Links). A
// link filter fetches the link's postings; a window uses the sparse
// time index (seeking to from minus the longest stored failure span,
// so failures that started before the window but overlap it are
// found); both together fetch only the link's postings inside the
// offset range the index allows the window. Filters are always
// re-verified against the decoded records.
func (s *Store) EachFailure(ctx context.Context, fn func(r *FailureRecord, link uint32) error, opts ...Option) error {
	q := resolveQuery(opts)
	n := 0
	var r FailureRecord
	visit := func(tsMs int64, rec []byte) error {
		link, err := s.decodeFailure(rec, &r)
		if err != nil {
			return s.recordDamage(FailuresSegment, err)
		}
		if !s.matchFailure(&q, &r) {
			return nil
		}
		return q.yield(&n, fn(&r, link))
	}
	var post []int64
	if q.link != nil && s.failPost != nil {
		ord, ok := s.linkOrd[*q.link]
		if post = q.clip(s.failPost[ord], s.failIdx, s.man.Failures.MaxSpanMs); !ok || len(post) == 0 {
			return nil
		}
	}
	return s.read(ctx, FailuresSegment, s.failIdx, post, failureRecLen, &q, s.man.Failures.MaxSpanMs, visit)
}

// decodeFailure maps one failures.seg record back through the
// catalogs into r and returns its link ordinal.
func (s *Store) decodeFailure(rec []byte, r *FailureRecord) (link uint32, err error) {
	source, link, startNs, endNs, err := decodeFailureRecord(rec)
	if err != nil {
		return 0, err
	}
	id, err := s.linkByOrd(link)
	if err != nil {
		return 0, err
	}
	r.Source, r.Link, r.Start, r.End = source, id, time.Unix(0, startNs).UTC(), time.Unix(0, endNs).UTC()
	return link, nil
}

func (s *Store) matchFailure(q *Query, r *FailureRecord) bool {
	if q.link != nil && r.Link != *q.link {
		return false
	}
	if q.source != nil && r.Source != *q.source {
		return false
	}
	if q.window && !r.Failure().Overlaps(q.from, q.to) {
		return false
	}
	return true
}

// Transitions returns the transitions EachTransition visits.
func (s *Store) Transitions(ctx context.Context, opts ...Option) ([]TransitionRecord, error) {
	var out []TransitionRecord
	err := s.EachTransition(ctx, func(r *TransitionRecord, _, _ uint32) error { out = append(out, *r); return nil }, opts...)
	return collected(out, err)
}

// EachTransition calls fn with each stored transition matching the
// options, in canonical store order, and returns the first error fn
// returns. fn is handed the record, valid only until it returns, and
// its link and reporter catalog ordinals. Its read plans are
// EachFailure's, with no window slack.
func (s *Store) EachTransition(ctx context.Context, fn func(r *TransitionRecord, link, reporter uint32) error, opts ...Option) error {
	q := resolveQuery(opts)
	n := 0
	var r TransitionRecord
	visit := func(tsMs int64, rec []byte) error {
		link, reporter, err := s.decodeTransition(rec, &r)
		if err != nil {
			return s.recordDamage(TransitionsSegment, err)
		}
		if !s.matchTransition(&q, &r) {
			return nil
		}
		return q.yield(&n, fn(&r, link, reporter))
	}
	var post []int64
	if q.link != nil && s.tranPost != nil {
		ord, ok := s.linkOrd[*q.link]
		if post = q.clip(s.tranPost[ord], s.tranIdx, 0); !ok || len(post) == 0 {
			return nil
		}
	}
	return s.read(ctx, TransitionsSegment, s.tranIdx, post, transitionRecLen, &q, 0, visit)
}

// decodeTransition maps one transitions.seg record back through the
// catalogs into r and returns its link and reporter ordinals.
func (s *Store) decodeTransition(rec []byte, r *TransitionRecord) (link, reporter uint32, err error) {
	stream, dir, kind, link, reporter, timeNs, err := decodeTransitionRecord(rec)
	if err != nil {
		return 0, 0, err
	}
	id, err := s.linkByOrd(link)
	if err != nil {
		return 0, 0, err
	}
	rep, err := s.reporterByOrd(reporter)
	if err != nil {
		return 0, 0, err
	}
	r.Stream, r.Time, r.Link, r.Dir, r.Kind, r.Reporter = stream, time.Unix(0, timeNs).UTC(), id, dir, kind, rep
	return link, reporter, nil
}

func (s *Store) matchTransition(q *Query, r *TransitionRecord) bool {
	if q.link != nil && r.Link != *q.link {
		return false
	}
	if q.stream != nil && r.Stream != *q.stream {
		return false
	}
	if q.dir != nil && r.Dir != *q.dir {
		return false
	}
	if q.kind != nil && r.Kind != *q.kind {
		return false
	}
	if q.reporter != nil && r.Reporter != *q.reporter {
		return false
	}
	if q.window && (r.Time.Before(q.from) || !r.Time.Before(q.to)) {
		return false
	}
	return true
}

// Messages returns the syslog lines EachMessage visits.
func (s *Store) Messages(ctx context.Context, opts ...Option) ([]MessageRecord, error) {
	var out []MessageRecord
	err := s.EachMessage(ctx, func(r *MessageRecord, _ uint32) error { out = append(out, *r); return nil }, opts...)
	return collected(out, err)
}

// EachMessage calls fn with each stored syslog line matching the
// options, in capture order (segment by segment, each time-ordered —
// exactly the order the pipeline consumes them), and returns the first
// error fn returns. fn is handed the record, valid only until it
// returns, and its host's catalog ordinal. A host filter uses the per-segment posting lists;
// a window uses each segment's sparse index, and clips the host's
// postings when both are given.
func (s *Store) EachMessage(ctx context.Context, fn func(r *MessageRecord, host uint32) error, opts ...Option) error {
	q := resolveQuery(opts)
	n := 0
	var r MessageRecord
	for i, meta := range s.man.Messages {
		if q.full(n) {
			return nil
		}
		// Skip segments whose span cannot intersect the window.
		if q.window && meta.Records > 0 &&
			(meta.LastMs < q.from.UnixMilli() || meta.FirstMs > q.to.UnixMilli()) {
			continue
		}
		visit := func(tsMs int64, rec []byte) error {
			host, line, err := decodeMessageRecord(rec)
			if err != nil {
				return s.recordDamage(meta.Name, err)
			}
			name, err := s.hostByOrd(host)
			if err != nil {
				return s.recordDamage(meta.Name, err)
			}
			if q.host != nil && name != *q.host {
				return nil
			}
			if len(q.contains) > 0 && !bytes.Contains(line, q.contains) {
				return nil
			}
			t := time.UnixMilli(tsMs).UTC()
			if q.window && (t.Before(q.from) || !t.Before(q.to)) {
				return nil
			}
			r = MessageRecord{Time: t, Host: name, Line: string(line)}
			return q.yield(&n, fn(&r, host))
		}
		var post []int64
		if q.host != nil && s.msgPost[i] != nil {
			ord, ok := s.hostOrd[*q.host]
			if !ok {
				return nil
			}
			if post = q.clip(s.msgPost[i][ord], s.msgIdx[i], 0); len(post) == 0 {
				continue
			}
		}
		if err := s.read(ctx, meta.Name, s.msgIdx[i], post, messageRecLen, &q, 0, visit); err != nil {
			return err
		}
	}
	return nil
}

// Flaps groups one source's stored failures into flapping episodes
// using the flap gap the store was analyzed with — the starting point
// for "messages during flap F" workflows (take an episode's span,
// query Messages with that window). Accepts WithLink and WithWindow
// to narrow the failure set first; WithLimit counts episodes, and
// returns a prefix of the unlimited answer.
func (s *Store) Flaps(ctx context.Context, src Source, opts ...Option) ([]trace.Episode, error) {
	// A fresh slice: appending to opts could write into the caller's
	// backing array, which two goroutines may share. The limit is the
	// episodes', so the failures are read without one.
	var fs []trace.Failure
	err := s.EachFailure(ctx, func(r *FailureRecord, _ uint32) error {
		fs = append(fs, r.Failure())
		return nil
	}, append(opts[:len(opts):len(opts)], WithSource(src), WithLimit(0))...)
	if err != nil {
		return nil, err
	}
	eps := trace.Episodes(fs, s.man.Params.FlapGap)
	if q := resolveQuery(opts); q.limit > 0 && len(eps) > q.limit {
		eps = eps[:q.limit]
	}
	return eps, nil
}

// errCatalog builds the decode error for a record referencing an
// ordinal past the manifest catalog.
func errCatalog(kind string, ord uint32) error {
	return fmt.Errorf("store: record references unknown %s ordinal %d", kind, ord)
}

// recordDamage handles a CRC-intact record that fails to decode
// (format or catalog mismatch): lenient stores account it as a skip,
// strict stores surface the error.
func (s *Store) recordDamage(name string, err error) error {
	if !s.lenient {
		return err
	}
	rep := &salvage.Report{}
	rep.Skip(0, "undecodable record")
	s.addSalvage(name, rep)
	return nil
}

// linkByOrd resolves a link catalog ordinal.
func (s *Store) linkByOrd(ord uint32) (topo.LinkID, error) {
	if int(ord) >= len(s.man.Links) {
		return "", errCatalog("link", ord)
	}
	return s.man.Links[ord].ID, nil
}

// reporterByOrd resolves a reporter catalog ordinal.
func (s *Store) reporterByOrd(ord uint32) (string, error) {
	if int(ord) >= len(s.man.Reporters) {
		return "", errCatalog("reporter", ord)
	}
	return s.man.Reporters[ord], nil
}

// hostByOrd resolves a host catalog ordinal.
func (s *Store) hostByOrd(ord uint32) (string, error) {
	if int(ord) >= len(s.man.Hosts) {
		return "", errCatalog("host", ord)
	}
	return s.man.Hosts[ord], nil
}
