// Package trace is the attribution layer the metrics registry cannot be:
// where metrics answer "how much, in total", trace answers "which batch,
// which expression, which oracle algorithm step, which SAT query". It
// records a hierarchy of timed spans — campaign batch → expression →
// per-analysis oracle run → algorithm iteration → individual SAT/enum
// query — with each leaf span carrying the solver internals (decisions,
// conflicts, propagations, restarts, learned clauses, CNF size) that the
// paper's Table 4-style cost accounting needs.
//
// Spans export in the Chrome trace-event format (a JSON array of
// "complete" events), loadable directly in Perfetto or chrome://tracing.
// cmd/trace-report aggregates the same files offline into hotspot tables.
//
// A nil *Tracer (and the nil *Span every call on it yields) is the
// untraced path: every method nil-checks and returns immediately, with no
// allocation and no locking, so instrumented code carries no guards and
// the hot path pays only a predictable branch (see BenchmarkNilSpan and
// TestNilSpanAllocates).
//
// Concurrency: a Tracer is safe for concurrent use by the comparator's
// worker pool; an individual Span must be started, annotated, and ended
// by one goroutine at a time (concurrent *sibling* spans are the
// supported shape). A span may change hands through a synchronizing
// handoff: a campaign batch span is started by the comparator's
// dispatcher and ended where the batch is folded.
package trace

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a span's level in the hierarchy. Smaller is coarser; the kind
// doubles as the event's category.
type Kind uint8

// The span hierarchy, coarsest first.
const (
	KindBatch    Kind = iota // one campaign batch (or one whole run)
	KindExpr                 // one expression's oracle computation
	KindAnalysis             // one of the eight oracle algorithms
	KindIter                 // one algorithm iteration (a bit, a CEGIS round)
	KindQuery                // one SAT solve or enumeration query
)

func (k Kind) String() string {
	switch k {
	case KindBatch:
		return "batch"
	case KindExpr:
		return "expr"
	case KindAnalysis:
		return "analysis"
	case KindIter:
		return "iter"
	case KindQuery:
		return "query"
	}
	return "unknown"
}

// Tracer writes spans as Chrome trace events. The zero value is not
// usable; call New or NewFile. A nil Tracer is the no-op tracer.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu        sync.Mutex
	w         *bufio.Writer
	file      *os.File // non-nil for NewFile tracers (enables rotation)
	path      string
	maxBytes  int64
	written   int64
	rotations int
	first     bool
	closed    bool
	err       error
	lanes     []bool // lane i busy ⇒ some live span renders on tid i
}

// New returns a tracer writing the Chrome trace-event JSON array to w.
// The caller owns w; Close flushes but does not close it.
func New(w io.Writer) *Tracer {
	t := &Tracer{epoch: time.Now(), w: bufio.NewWriter(w), first: true}
	t.writeHeader()
	return t
}

// NewFile returns a tracer writing to path. When maxBytes > 0 and the
// current file grows past it, the tracer finalizes the file (keeping it a
// well-formed JSON array) and rolls over to path.1, path.2, … — the size
// cap that keeps a week-long campaign from filling the disk silently.
// Every rolled file is independently loadable, and cmd/trace-report
// accepts them all at once.
func NewFile(path string, maxBytes int64) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &Tracer{
		epoch:    time.Now(),
		w:        bufio.NewWriter(f),
		file:     f,
		path:     path,
		maxBytes: maxBytes,
		first:    true,
	}
	t.writeHeader()
	return t, nil
}

// event is one Chrome trace event. Args carries the span's id/parent
// links and annotations; ts/dur are microseconds from the tracer epoch.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeHeader opens the JSON array and names the process, so Perfetto
// shows "dfcheck" instead of "pid 1". Callers hold no lock yet (header
// writes happen before the tracer is shared).
func (t *Tracer) writeHeader() {
	t.written = 0
	t.first = true
	if _, err := t.w.WriteString("[\n"); err != nil {
		t.err = err
		return
	}
	t.written += 2
	t.writeEvent(event{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "dfcheck"},
	})
}

// writeEvent marshals and appends one event. Caller must hold mu (or be
// in single-goroutine setup/teardown).
func (t *Tracer) writeEvent(ev event) {
	if t.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = fmt.Errorf("trace: %w", err)
		return
	}
	if !t.first {
		if _, err := t.w.WriteString(",\n"); err != nil {
			t.err = err
			return
		}
		t.written += 2
	}
	t.first = false
	n, err := t.w.Write(data)
	t.written += int64(n)
	if err != nil {
		t.err = err
	}
}

// rotate finalizes the current file and opens the next one in the
// sequence. Caller holds mu.
func (t *Tracer) rotate() {
	if t.err != nil {
		return
	}
	t.w.WriteString("\n]\n")
	if err := t.w.Flush(); err != nil {
		t.err = err
		return
	}
	if err := t.file.Close(); err != nil {
		t.err = err
		return
	}
	t.rotations++
	next := fmt.Sprintf("%s.%d", t.path, t.rotations)
	f, err := os.Create(next)
	if err != nil {
		t.err = err
		return
	}
	t.file = f
	t.w = bufio.NewWriter(f)
	t.writeHeader()
}

// Rotations reports how many times the size cap rolled the trace file —
// surfaced by the CLIs so a capped campaign is loud about it.
func (t *Tracer) Rotations() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rotations
}

// Err returns the first write error, if any; like the event log, a full
// disk surfaces once instead of per span.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close finalizes the JSON array and flushes (closing the file for
// NewFile tracers). Spans ended after Close are dropped.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		t.w.WriteString("\n]\n")
		if err := t.w.Flush(); err != nil {
			t.err = err
		}
	}
	if t.file != nil {
		if err := t.file.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// acquireLane reserves the lowest free display lane (Perfetto tid).
// Caller holds mu.
func (t *Tracer) acquireLane() int {
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

// kv is one span annotation; a slice keeps Set allocation-light and
// preserves insertion order until serialization.
type kv struct {
	k string
	v any
}

// Span is one timed region. A nil Span is the no-op span: Child returns
// nil, Set and End return immediately.
type Span struct {
	t       *Tracer
	id      uint64
	parent  uint64
	kind    Kind
	name    string
	tid     int
	ownLane bool
	start   time.Duration
	args    []kv
}

// Start begins a span. parent may be nil (a root span). Root spans and
// expression spans get their own display lane — with one expression per
// worker, the trace renders as one row per worker — while finer spans
// nest on their parent's lane.
func (t *Tracer) Start(parent *Span, kind Kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.ids.Add(1), kind: kind, name: name, start: time.Since(t.epoch)}
	if parent != nil {
		s.parent = parent.id
		s.tid = parent.tid
	}
	if parent == nil || kind == KindExpr {
		t.mu.Lock()
		s.tid = t.acquireLane()
		t.mu.Unlock()
		s.ownLane = true
	}
	return s
}

// Child starts a sub-span of s. Nil-safe: the no-op span begets no-op
// spans, so call chains need no guards.
func (s *Span) Child(kind Kind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(s, kind, name)
}

// Set annotates the span; keys "id" and "parent" are reserved. Values
// must JSON-marshal. Nil-safe, but note the value is boxed at the call
// site even for a nil span — hot paths use SetInt/SetStr, whose typed
// parameters keep the untraced path allocation-free.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	s.args = append(s.args, kv{key, v})
}

// SetInt annotates the span with an integer. Nil-safe with zero
// allocation on the nil path.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.args = append(s.args, kv{key, v})
}

// SetStr annotates the span with a string. Nil-safe with zero allocation
// on the nil path.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.args = append(s.args, kv{key, v})
}

// Tracer returns the tracer that owns s (nil for the no-op span), so code
// handed only a span can start independent root spans.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// End emits the span as one complete ("X") trace event and releases its
// display lane. Nil-safe. End must be called exactly once, after every
// child span has ended.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	dur := time.Since(t.epoch) - s.start
	args := make(map[string]any, len(s.args)+2)
	args["id"] = s.id
	if s.parent != 0 {
		args["parent"] = s.parent
	}
	for _, a := range s.args {
		args[a.k] = a.v
	}
	ev := event{
		Name: s.name,
		Cat:  s.kind.String(),
		Ph:   "X",
		TS:   float64(s.start.Nanoseconds()) / 1e3,
		Dur:  float64(dur.Nanoseconds()) / 1e3,
		PID:  1,
		TID:  s.tid,
		Args: args,
	}
	t.mu.Lock()
	if !t.closed {
		t.writeEvent(ev)
		if t.file != nil && t.maxBytes > 0 && t.written >= t.maxBytes {
			if err := t.w.Flush(); err != nil && t.err == nil {
				t.err = err
			}
			t.rotate()
		}
	}
	if s.ownLane && s.tid < len(t.lanes) {
		t.lanes[s.tid] = false
	}
	t.mu.Unlock()
}

// ctxKey keys the span carried by a context.
type ctxKey struct{}

// NewContext returns ctx carrying s, the way batch spans flow from the
// campaign loop into the comparator's workers. A nil span returns ctx
// unchanged, so the untraced path adds no context nesting.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
