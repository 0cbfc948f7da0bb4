// Package factsvc serves dataflow-fact queries over HTTP (DESIGN §12.3):
// POST /v1/facts answers a batch of expressions with their eight Table 1
// oracle facts. It is a thin adapter: it bounds admitted and running
// queries and keeps the factsvc_* metrics, the slow log and a span per
// solve. Dedup is the solver's job: the comparator's result cache and
// per-key flight (compare.Comparator.NewFactService) are the only dedup
// on the query path.
package factsvc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
	"dfcheck/internal/trace"
)

// Fact is one rendered dataflow fact: an analysis name (a
// harvest.Analysis value; demanded bits carries a "(var)" suffix per
// input variable) and the fact text in the paper's print format.
type Fact struct {
	Analysis string `json:"analysis"`
	Fact     string `json:"fact"`
}

// SolveFunc computes the canonical hash and the dataflow facts for one
// expression. The comparator provides the production implementation
// (compare.Comparator.NewFactService), whose cache keys come from the
// same canonical form; tests substitute stubs.
type SolveFunc func(ctx context.Context, f *ir.Function) (hash uint64, facts []Fact, err error)

// ErrSaturated is returned by Query when every admission slot is taken;
// the HTTP layer maps it to 429 + Retry-After.
var ErrSaturated = errors.New("factsvc: solve queue saturated")

const (
	// slotsPerWorker bounds admitted, unfinished queries per worker; a
	// query beyond them fails fast with ErrSaturated.
	slotsPerWorker = 64
	// retryAfter is the base backoff RetryAfterSecs scales.
	retryAfter = time.Second
)

// Config configures a Service.
type Config struct {
	// Workers bounds the solves running at once; 0 selects 4. The
	// service admits Workers×64 queries before it answers ErrSaturated.
	Workers int
	// Solve computes the canonical hash and the facts for one
	// expression. Required.
	Solve SolveFunc
	// Metrics receives the factsvc_* instruments; nil keeps them in a
	// private registry.
	Metrics *metrics.Registry
	// Tracer, when set, records one expr-level span per solve.
	Tracer *trace.Tracer
	// SlowLog, when set, retains the slowest solves (canonical hash,
	// opcode, width, duration, solver-stat detail) for /slowz and
	// /dashboardz.
	SlowLog *metrics.SlowLog
}

// Answer is one answered query: the canonical hash (alpha-variants
// share it, as they share cache lines), the facts, and the time spent
// once a solve slot was free, which a cache or flight answer makes
// small.
type Answer struct {
	Hash    uint64
	Facts   []Fact
	Elapsed time.Duration
}

// Service answers fact queries: Query, like the HTTP handler, takes an
// admission slot, then a solve slot, then solves.
type Service struct {
	cfg      Config
	admitted chan struct{} // one token per admitted, unfinished query
	solving  chan struct{} // one token per running solve

	// Instruments, resolved once at construction.
	mExprs, mRejected, mSolved, mErrors     *metrics.Counter
	gQueue                                  *metrics.Gauge
	hLatency, hSolved, hErrored, hSaturated *metrics.Histogram
	cSolverQ                                *metrics.Counter // shared solver_queries, for slow-log deltas
}

// New returns a Service answering through cfg.Solve.
func New(cfg Config) (*Service, error) {
	if cfg.Solve == nil {
		return nil, errors.New("factsvc: Config.Solve is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	m := cfg.Metrics
	outcome := func(o string) *metrics.Histogram {
		return m.HistogramL("factsvc_solve_latency", metrics.Labels{"outcome": o})
	}
	return &Service{
		cfg:        cfg,
		admitted:   make(chan struct{}, cfg.Workers*slotsPerWorker),
		solving:    make(chan struct{}, cfg.Workers),
		mExprs:     m.Counter("factsvc_exprs"),
		mRejected:  m.Counter("factsvc_rejected"),
		mSolved:    m.Counter("factsvc_solved"),
		mErrors:    m.Counter("factsvc_errors"),
		gQueue:     m.Gauge("factsvc_queue_depth"),
		hLatency:   m.Histogram("factsvc_latency"),
		hSolved:    outcome("solved"),
		hErrored:   outcome("error"),
		hSaturated: outcome("saturated"),
		cSolverQ:   m.Counter("solver_queries"),
	}, nil
}

// RetryAfterSecs derives the Retry-After value (whole seconds) a
// saturated service should advertise. The formula is deliberately
// simple and bounded:
//
//	fill = queued / capacity, clamped to [0, 1]
//	secs = ceil(base_seconds × (1 + 3×fill)), clamped to [1, 300]
//
// A service rejecting on a momentary spike advertises its base backoff;
// a fully saturated one advertises 4× base, so retry pressure decays
// instead of synchronizing every rejected client onto the same instant.
func RetryAfterSecs(base time.Duration, queued, capacity int) int {
	baseSecs := base.Seconds()
	if baseSecs < 1 {
		baseSecs = 1
	}
	fill := 0.0
	if capacity > 0 {
		fill = float64(queued) / float64(capacity)
		if fill > 1 {
			fill = 1
		}
		if fill < 0 {
			fill = 0
		}
	}
	secs := int(baseSecs * (1 + 3*fill))
	if float64(secs) < baseSecs*(1+3*fill) {
		secs++ // ceil
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// retryAfterSecs applies RetryAfterSecs to the current admission fill.
func (s *Service) retryAfterSecs() int {
	return RetryAfterSecs(retryAfter, len(s.admitted), cap(s.admitted))
}

// Query answers one expression: it takes an admission slot, failing
// fast with ErrSaturated when none is free, waits for a solve slot (or
// ctx), solves, and records the metrics, the slow log and the span.
func (s *Service) Query(ctx context.Context, f *ir.Function) (Answer, error) {
	if !s.admit() {
		return Answer{}, ErrSaturated
	}
	return s.solve(ctx, f)
}

// admit takes an admission slot without blocking. Every call counts in
// factsvc_exprs; a refused one counts in factsvc_rejected and observes
// its fast-fail time as the saturated outcome.
func (s *Service) admit() bool {
	start := time.Now()
	s.mExprs.Inc()
	select {
	case s.admitted <- struct{}{}:
		s.gQueue.Add(1)
		return true
	default:
		s.mRejected.Inc()
		s.hSaturated.Observe(time.Since(start))
		return false
	}
}

// solve answers an admitted query and releases its admission slot. A
// cancelled ctx ends the wait for a solve slot. Once the solve starts
// it runs to completion under ctx's values but not its cancellation:
// its result reaches the cache and every flight waiter, so one client
// going away cannot degrade another's answer. A panic while solving
// becomes this query's error.
func (s *Service) solve(ctx context.Context, f *ir.Function) (ans Answer, err error) {
	defer func() {
		<-s.admitted
		s.gQueue.Add(-1)
	}()
	select {
	case s.solving <- struct{}{}:
		defer func() { <-s.solving }()
	case <-ctx.Done():
		return ans, ctx.Err()
	}
	sp := s.cfg.Tracer.Start(nil, trace.KindExpr, "factsvc")
	qBefore := s.cSolverQ.Value()
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("factsvc: solve panicked: %v", r)
		}
		ans.Elapsed = time.Since(start)
		s.finish(f, ans, err, sp, start, qBefore)
	}()
	ans.Hash, ans.Facts, err = s.cfg.Solve(trace.NewContext(context.WithoutCancel(ctx), sp), f)
	return ans, err
}

// finish records one finished solve: the counters, the latency
// histograms, and, with a tracer or a slow log, the span's hash, the
// slow log (an admitted entry marks the span slow=1), and the span's end.
func (s *Service) finish(f *ir.Function, ans Answer, err error, sp *trace.Span, start time.Time, qBefore int64) {
	s.mSolved.Inc()
	s.hLatency.Observe(ans.Elapsed)
	if err != nil {
		s.mErrors.Inc()
		s.hErrored.Observe(ans.Elapsed)
	} else {
		s.hSolved.Observe(ans.Elapsed)
	}
	if sp == nil && s.cfg.SlowLog == nil {
		return
	}
	hash := fmt.Sprintf("%016x", ans.Hash)
	sp.SetStr("hash", hash)
	if s.cfg.SlowLog != nil {
		// The solver-query delta is read off the shared process-wide
		// counter; with several solves running it attributes some
		// neighbors' queries to this one, so it is labeled ≈.
		e := metrics.SlowEntry{
			When:    start,
			Hash:    hash,
			Op:      f.Root.Op.String(),
			Width:   f.Width(),
			Elapsed: ans.Elapsed,
			Detail:  fmt.Sprintf("facts=%d solver_queries≈%d", len(ans.Facts), s.cSolverQ.Value()-qBefore),
		}
		if err != nil {
			e.Err = err.Error()
		}
		if s.cfg.SlowLog.Note(e) {
			sp.SetInt("slow", 1)
		}
	}
	sp.End()
}
