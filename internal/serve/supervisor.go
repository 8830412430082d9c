// Package serve is the crash-safe live ingest layer: a supervisor
// that runs capture sources under restart-with-backoff, feeds their
// records through bounded shed-policy queues into a serialized
// WAL-append-then-apply path, and seals the WAL so that a SIGKILL at
// any instant loses nothing that was durably ingested. The path
// commits in groups: each consumer takes everything its queue holds,
// journals it with one write (cut at the seals, so segments hold what
// per-record appends would have put there), and only then applies it.
//
// The paper's measurement infrastructure is the motivation: its
// passive IS-IS listener ran for 13 months and its own crashes had to
// be sanitized out of the dataset afterwards (§3.3), and its syslog
// path shed messages invisibly under load. This layer makes both
// failure modes explicit: ingest survives kills (checkpoint +
// recovery replay), overload sheds by declared policy with exact
// accounting (never silently), and source failures walk a visible
// up/degraded/down state machine instead of dying quietly.
//
// The ordering contract: records from one source are applied in
// arrival order, always — queues are FIFO and each source has one
// consumer. Interleaving *across* sources is scheduling-dependent, so
// a Handler must keep per-source streams separate until its final
// report (the analysis pipeline already does: syslog lines and LSPs
// are distinct inputs). Under that contract, recovery replay — which
// applies the durable history in sequence order — reproduces the
// exact per-source streams, and a killed-and-resumed campaign reports
// byte-identically to an uninterrupted one.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netfail/internal/backoff"
	"netfail/internal/checkpoint"
	"netfail/internal/clock"
	"netfail/internal/obs"
	"netfail/internal/salvage"
)

// A Record is one ingested datum: a syslog line, an LSP, any source
// payload, stamped with its source name and capture time.
type Record struct {
	Source string
	Time   time.Time
	Data   []byte
}

// A Source produces records. Run must respect ctx and return when
// emit reports ErrStopped. A nil return means the source is exhausted
// (a finite replay) and is not restarted; an error means it failed
// and the supervisor restarts it with backoff.
type Source interface {
	Name() string
	Run(ctx context.Context, emit func(Record) error) error
}

// A Handler applies ingested records to live analysis state. Apply is
// called from one goroutine at a time (the ingest path is
// serialized), in per-source FIFO order. Apply errors are counted,
// not fatal: one malformed record must not stop a 13-month capture.
type Handler interface {
	Apply(rec Record) error
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(rec Record) error

// Apply calls fn.
func (fn HandlerFunc) Apply(rec Record) error { return fn(rec) }

// ErrStopped is what emit returns once the supervisor is draining:
// the source should stop producing and return.
var ErrStopped = errors.New("serve: supervisor is draining")

// Config parameterizes a Supervisor. The zero value is usable:
// defaults are filled in by New.
type Config struct {
	// Dir is the checkpoint directory (required).
	Dir string
	// QueueSize bounds each source's queue (default 1024).
	QueueSize int
	// Policy is the shed policy for full queues (default Block).
	Policy Policy
	// SnapshotEvery seals the WAL segment (fsync, start the next)
	// every N durable appends (0: only the final seal at shutdown).
	SnapshotEvery int
	// DrainTimeout bounds the post-cancellation drain: past it, queued
	// records are discarded (and accounted as shed) and consumers stop
	// applying, even mid-batch, so shutdown cannot hang on a stuck
	// handler; what was journaled but not applied counts as ingested
	// and is replayed at the next start (0: drain fully).
	DrainTimeout time.Duration
	// DownAfter is the consecutive-failure count that moves a source
	// from degraded to down (default 3).
	DownAfter int
	// Restart is the backoff policy for restarting failed sources
	// (default backoff.Default).
	Restart backoff.Policy
	// Clock supplies time for health transitions (default the system
	// clock).
	Clock clock.Clock
	// Registry receives ingest metrics; nil disables them.
	Registry *obs.Registry
	// Strict makes recovery refuse damaged checkpoint state instead of
	// salvaging around it.
	Strict bool
	// FsyncEach upgrades append durability from SIGKILL-safe to
	// power-loss-safe.
	FsyncEach bool
	// AppendHook, when set, runs after every durable WAL write, before
	// any record it journaled is applied, with the total durable-record
	// count — the chaos harness's kill point. One write journals a
	// batch, so consecutive totals may differ by more than one.
	AppendHook func(total int)
}

// Recovered describes the state New rebuilt from the checkpoint
// directory and replayed through the handler.
type Recovered struct {
	// Records is how many durable records were replayed.
	Records int
	// PerSource counts replayed records by source name — a finite
	// replay source resumes at its count.
	PerSource map[string]int
	// Report accounts everything recovery had to salvage around.
	Report *salvage.Report
}

// A Supervisor owns the ingest path: sources → queues → serialized
// append-then-apply → seal.
type Supervisor struct {
	cfg     Config
	handler Handler
	sources []Source
	queues  map[string]*queue
	healths map[string]*health
	clk     clock.Clock
	reg     *obs.Registry

	store *checkpoint.Store
	// Counters ingest adds to, resolved once: a lookup takes the
	// registry lock.
	ingested                                      map[string]*obs.Counter
	walAppends, walWrites, snapshots, handlerErrs *obs.Counter

	ingestMu sync.Mutex
	appends  int
	// abandoned is set when the drain deadline passes: consumers stop
	// applying, even mid-batch, and only journal what they hold.
	abandoned atomic.Bool

	phase  phase
	pmu    sync.Mutex
	runErr error
	cancel context.CancelFunc
}

type phase int32

const (
	phaseReady phase = iota
	phaseRunning
	phaseDraining
	phaseStopped
)

// New opens (or creates) the checkpoint directory, replays the
// durable history through the handler, and returns a supervisor ready
// to Run plus what was recovered. The handler sees recovered records
// in original sequence order before Run starts any source.
func New(cfg Config, h Handler, sources ...Source) (*Supervisor, *Recovered, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if h == nil {
		return nil, nil, fmt.Errorf("serve: handler is required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.Restart == (backoff.Policy{}) {
		cfg.Restart = backoff.Default
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	names := make(map[string]bool, len(sources))
	for _, src := range sources {
		if names[src.Name()] {
			return nil, nil, fmt.Errorf("serve: duplicate source name %q", src.Name())
		}
		names[src.Name()] = true
	}

	var opts []checkpoint.Option
	if cfg.Strict {
		opts = append(opts, checkpoint.Strict())
	}
	if cfg.FsyncEach {
		opts = append(opts, checkpoint.FsyncEach())
	}
	store, rec, err := checkpoint.Open(cfg.Dir, opts...)
	if err != nil {
		return nil, nil, err
	}

	s := &Supervisor{
		cfg:         cfg,
		handler:     h,
		sources:     sources,
		queues:      make(map[string]*queue, len(sources)),
		healths:     make(map[string]*health, len(sources)),
		clk:         cfg.Clock,
		reg:         cfg.Registry,
		store:       store,
		ingested:    make(map[string]*obs.Counter, len(sources)),
		walAppends:  cfg.Registry.Counter("serve.wal.appends"),
		walWrites:   cfg.Registry.Counter("serve.wal.writes"),
		snapshots:   cfg.Registry.Counter("serve.snapshots"),
		handlerErrs: cfg.Registry.Counter("serve.handler.errors"),
	}
	for _, src := range sources {
		s.ingested[src.Name()] = cfg.Registry.Counter("serve.ingested." + src.Name())
		shed := cfg.Registry.Counter("serve.shed." + src.Name())
		s.queues[src.Name()] = newQueue(cfg.QueueSize, cfg.Policy, shed)
		s.healths[src.Name()] = newHealth(cfg.DownAfter)
	}

	// Replay the durable history through the handler so live ingest
	// resumes exactly where the killed process stopped. Nothing keeps
	// the records once they are applied: the WAL on disk is the log.
	rcv := &Recovered{PerSource: make(map[string]int), Report: rec.Report}
	for _, cr := range rec.Records {
		r, derr := decodeRecord(cr.Data)
		if derr != nil {
			if cfg.Strict {
				store.Close()
				return nil, nil, fmt.Errorf("serve: recovery: seq %d: %w", cr.Seq, derr)
			}
			rec.Report.Skip(0, "undecodable recovered record")
			continue
		}
		if aerr := h.Apply(r); aerr != nil {
			s.handlerErrs.Add(1)
		}
		rcv.Records++
		rcv.PerSource[r.Source]++
	}
	s.appends = len(rec.Records)
	s.reg.Gauge("serve.recovered.records").Set(int64(rcv.Records))
	obs.AddSalvage(s.reg, "serve.recovery", rec.Report)
	return s, rcv, nil
}

// Run starts every source under supervision and blocks until all
// sources are exhausted or ctx is cancelled, then drains the queues
// (bounded by DrainTimeout after cancellation), seals the WAL, and
// closes the store. Run is one-shot.
func (s *Supervisor) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	s.setPhase(phaseRunning)
	s.pmu.Lock()
	s.cancel = cancel
	s.pmu.Unlock()
	defer cancel()

	var producers sync.WaitGroup
	for _, src := range s.sources {
		producers.Add(1)
		go func(src Source) {
			defer producers.Done()
			s.supervise(ctx, src)
		}(src)
	}
	var consumers sync.WaitGroup
	for _, src := range s.sources {
		consumers.Add(1)
		go func(name string) {
			defer consumers.Done()
			s.consume(name)
		}(src.Name())
	}

	// Close the queues the moment the context dies so producers
	// blocked in push unblock (emit returns ErrStopped) — otherwise a
	// Block-policy queue could wedge shutdown. Natural exhaustion
	// closes them below instead.
	producersDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.setPhase(phaseDraining)
			for _, q := range s.queues {
				q.close()
			}
		case <-producersDone:
		}
	}()

	producers.Wait()
	close(producersDone)
	s.setPhase(phaseDraining)
	for _, q := range s.queues {
		q.close()
	}

	// Drain: consumers keep applying the backlog. After cancellation a
	// deadline bounds the wait; past it the backlog is discarded (and
	// accounted as shed) so shutdown cannot hang.
	consumersDone := make(chan struct{})
	go func() {
		consumers.Wait()
		close(consumersDone)
	}()
	if ctx.Err() != nil && s.cfg.DrainTimeout > 0 {
		t := time.NewTimer(s.cfg.DrainTimeout)
		select {
		case <-consumersDone:
			t.Stop()
		case <-t.C:
			s.abandoned.Store(true)
			for _, q := range s.queues {
				q.discard()
			}
			<-consumersDone
		}
	} else {
		<-consumersDone
	}
	s.publishQueueStats()

	// Final checkpoint: after this every ingested record is power-loss
	// durable.
	err := s.finalCheckpoint()
	s.setPhase(phaseStopped)
	s.pmu.Lock()
	if s.runErr != nil {
		err = s.runErr
	}
	s.pmu.Unlock()
	return err
}

// supervise runs one source, restarting it on failure with jittered
// backoff until it exhausts, the budget is spent, or ctx dies.
func (s *Supervisor) supervise(ctx context.Context, src Source) {
	name := src.Name()
	q := s.queues[name]
	h := s.healths[name]
	restarts := s.reg.Counter("serve.source." + name + ".restarts")
	stateGauge := s.reg.Gauge("serve.source." + name + ".state")
	retry := s.cfg.Restart.New()

	emit := func(rec Record) error {
		rec.Source = name
		switch q.push(rec) {
		case pushClosed:
			return ErrStopped
		case pushShed:
			// The queue already accounted the shed in the metric.
			return nil
		}
		h.ok(s.clk.Now())
		stateGauge.Set(int64(Up))
		retry.Reset()
		return nil
	}
	for {
		err := src.Run(ctx, emit)
		if err == nil || errors.Is(err, ErrStopped) || ctx.Err() != nil {
			return
		}
		state := h.fail(s.clk.Now())
		stateGauge.Set(int64(state))
		d, ok := retry.Next()
		if !ok {
			h.down(s.clk.Now())
			stateGauge.Set(int64(Down))
			return
		}
		restarts.Add(1)
		if backoff.SleepCtx(ctx, d) != nil {
			return
		}
	}
}

// consume drains one source's queue through the serialized ingest
// path until the queue is closed and empty. Each turn takes everything
// queued, never waiting to fill a batch, so a lone record is journaled
// as soon as it arrives.
func (s *Supervisor) consume(name string) {
	q := s.queues[name]
	depth := s.reg.Gauge("serve.queue." + name + ".depth")
	batch := make([]Record, 0, len(q.buf))
	for {
		batch = q.take(batch)
		depth.Set(int64(q.depth()))
		if len(batch) == 0 {
			return
		}
		if err := s.ingest(batch); err != nil {
			s.fatal(err)
			return
		}
	}
}

// ingest is the serialized durability point. It journals the batch
// with one WAL write per seal interval, then applies those records in
// order, then maybe seals. A record is never applied before it is
// durable, so a kill at any instant leaves the handler state a prefix
// of the durable history. Once journaled a record is counted, even
// when the seal after it fails or the drain deadline stops it from
// being applied (the next start replays it).
func (s *Supervisor) ingest(batch []Record) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	every := s.cfg.SnapshotEvery
	for len(batch) > 0 {
		part := batch
		if every > 0 {
			part = batch[:min(len(batch), every-s.appends%every)]
		}
		batch = batch[len(part):]
		if _, err := s.store.AppendBatch(len(part), func(dst []byte, i int) []byte {
			return appendRecord(dst, part[i])
		}); err != nil {
			return err
		}
		s.appends += len(part)
		s.walAppends.Add(int64(len(part)))
		s.walWrites.Add(1)
		s.ingested[part[0].Source].Add(int64(len(part)))
		if s.cfg.AppendHook != nil {
			s.cfg.AppendHook(s.appends)
		}
		for _, rec := range part {
			if s.abandoned.Load() {
				break
			}
			if err := s.handler.Apply(rec); err != nil {
				s.handlerErrs.Add(1)
			}
		}
		if every > 0 && s.appends%every == 0 {
			if err := s.store.Seal(); err != nil {
				return err
			}
			s.snapshots.Add(1)
		}
	}
	return nil
}

// finalCheckpoint seals the WAL and closes the store.
func (s *Supervisor) finalCheckpoint() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if err := s.store.Seal(); err != nil {
		s.store.Close()
		return err
	}
	s.snapshots.Add(1)
	return s.store.Close()
}

// fatal records the first store-level failure and cancels the run:
// when durability is gone, continuing to ack records would lie.
func (s *Supervisor) fatal(err error) {
	s.pmu.Lock()
	if s.runErr == nil {
		s.runErr = err
	}
	cancel := s.cancel
	s.pmu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (s *Supervisor) setPhase(p phase) {
	s.pmu.Lock()
	// Phases only move forward; the ctx-watcher and the main path both
	// announce draining.
	if p > s.phase {
		s.phase = p
	}
	s.pmu.Unlock()
}

func (s *Supervisor) getPhase() phase {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.phase
}

// publishQueueStats copies final queue accounting into the registry.
func (s *Supervisor) publishQueueStats() {
	for name, q := range s.queues {
		_, hw := q.stats()
		s.reg.Gauge("serve.queue." + name + ".highwater").Set(int64(hw))
	}
}

// Health returns every source's current state, sorted by name.
type SourceHealth struct {
	Name  string
	State State
	Since time.Time
}

// Health reports each source's health state.
func (s *Supervisor) Health() []SourceHealth {
	out := make([]SourceHealth, 0, len(s.healths))
	for name, h := range s.healths {
		st, since := h.get()
		out = append(out, SourceHealth{Name: name, State: st, Since: since})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReadyHandler serves readiness: 200 while the supervisor is running
// (recovery done, sources started), 503 before Run and once draining
// begins — load balancers stop sending before the drain finishes.
func (s *Supervisor) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s.getPhase() == phaseRunning {
			fmt.Fprintln(w, "ready")
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	})
}

// HealthzHandler serves liveness: 200 with a per-source state line
// while no source is Down, 503 otherwise.
func (s *Supervisor) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		healths := s.Health()
		code := http.StatusOK
		for _, h := range healths {
			if h.State == Down {
				code = http.StatusServiceUnavailable
			}
		}
		w.WriteHeader(code)
		for _, h := range healths {
			fmt.Fprintf(w, "%s %s\n", h.Name, h.State)
		}
	})
}

// Record wire format inside the WAL:
//
//	u8 len(source) | source | i64le unix-nanos | data
const recordHeaderMin = 1 + 8

// appendRecord appends a record's WAL payload to dst.
func appendRecord(dst []byte, r Record) []byte {
	src := r.Source
	if len(src) > 255 {
		src = src[:255]
	}
	dst = append(append(dst, byte(len(src))), src...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Time.UnixNano()))
	return append(dst, r.Data...)
}

// decodeRecord parses a WAL payload written by appendRecord.
func decodeRecord(b []byte) (Record, error) {
	if len(b) < recordHeaderMin {
		return Record{}, fmt.Errorf("record too short (%d bytes)", len(b))
	}
	srcLen := int(b[0])
	if len(b) < 1+srcLen+8 {
		return Record{}, fmt.Errorf("record source name torn (%d of %d bytes)", len(b)-1, srcLen)
	}
	src := string(b[1 : 1+srcLen])
	nanos := int64(binary.LittleEndian.Uint64(b[1+srcLen:]))
	return Record{
		Source: src,
		Time:   time.Unix(0, nanos).UTC(),
		Data:   append([]byte(nil), b[1+srcLen+8:]...),
	}, nil
}
