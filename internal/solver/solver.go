// Package solver answers the dataflow queries the oracle algorithms pose,
// in terms of a single abstract Engine interface with two implementations:
//
//   - SATEngine bit-blasts the function and decides each query with the
//     CDCL solver — the production path, standing in for the paper's Z3.
//   - EnumEngine decides queries by exhaustive input enumeration — usable
//     only at small widths. NewEngine sends every function of at most
//     DefaultEnumCutoff summed input bits to it, and the tests use it to
//     cross-check SATEngine.
//
// Demanded bits (Engine.BitMatters) have one exhaustive path shared by
// both: a bit-sliced sweep that evaluates each 64-lane block of the input
// space once and decides every input bit of every variable from the
// stored outputs. EnumEngine always uses it, and a SAT engine built by
// NewEngine uses it instead of miter queries up to DemandedSweepBits
// summed input bits. Above that, such an engine first samples witness
// pairs on the sliced evaluator and asks a miter only for the bits no
// sample proves demanded. NewSAT keeps every demanded-bits query on the
// miter.
//
// Algorithm 3's range certificate (Engine.RefuteWindow), which settles
// near-full size searches whether CEGIS would give up on them or only
// finish them slowly, takes the same evaluator paths without a solver:
// EnumEngine answers from its memoized outputs, and a SAT engine built by
// NewEngine from the whole input space up to DemandedSweepBits and from
// seeded random blocks above it. NewSAT refutes nothing, so its range
// searches stay the reference.
//
// NewEngine's routing is the one configuration production runs take.
// NewSAT, with SATEngine.NoStrash for the unhashed circuits, is the
// reference the tests and the root ablation benchmarks compare it with.
//
// Every query is implicitly conjoined with "the execution is well-defined"
// (no UB, range metadata satisfied), mirroring Souper's UB-aware
// quantification. Answers carry an ok flag: ok=false means the engine's
// resource budget was exhausted (the paper's 30-second solver timeout,
// surfaced in Table 1's "resource exhaustion" column).
package solver

import (
	"context"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
	"dfcheck/internal/trace"
)

// Engine answers existential queries about a function's output over
// well-defined inputs. Each method's first result is meaningful only when
// ok is true.
type Engine interface {
	// Feasible reports whether any well-defined input exists.
	Feasible() (feasible, ok bool)

	// OutputBitCanBe reports whether some well-defined input makes
	// output bit i equal to val.
	OutputBitCanBe(i uint, val bool) (sat, ok bool)

	// SignBitsViolated reports whether some well-defined input makes the
	// top k bits of the output not all equal (i.e. refutes "at least k
	// sign bits").
	SignBitsViolated(k uint) (sat, ok bool)

	// CanBeZero reports whether the output can be zero.
	CanBeZero() (sat, ok bool)

	// CanBeNonPowerOfTwo reports whether the output can be anything
	// other than a power of two (zero included).
	CanBeNonPowerOfTwo() (sat, ok bool)

	// OutputOutside reports whether the output can lie outside the
	// wrapped interval [lo, lo+size), and if so returns one such output
	// value (the CEGIS counterexample for Algorithm 3).
	OutputOutside(lo, size apint.Int) (example apint.Int, sat, ok bool)

	// RefuteWindow reports whether outputs the engine reaches by running
	// the function on concrete inputs, with no solver query, fit in no
	// wrapped window [X, X+size): then no window of that size or smaller
	// holds every achievable output. It is Algorithm 3's certificate for
	// near-full size searches, which the CEGIS loop cannot finish or
	// finishes only after dozens to hundreds of counterexamples. false
	// refutes nothing, and is all an engine without an evaluator path,
	// or whose context or deadline fires, answers. An answer counts one
	// enum-class query under a "range-sample" span.
	RefuteWindow(size apint.Int) bool

	// BitMatters reports whether flipping bit `bit` of input v can change
	// the output, comparing only executions where both the original and
	// the flipped run are well-defined (Algorithm 2's equivalence check).
	// The relation is symmetric, so this one query covers forcing the bit
	// to 0 and forcing it to 1: either way the witness is a pair of
	// well-defined inputs that differ only in that bit and whose outputs
	// differ.
	BitMatters(v *ir.Inst, bit uint) (sat, ok bool)

	// AddPruned records n queries the caller never issued because their
	// answer was already fixed without solving (a sound abstract seed, or
	// an engine-level memo). The oracle algorithms call this so Table-1
	// CPU-time deltas stay attributable.
	AddPruned(n int64)

	// SetTraceSpan sets the span subsequent queries nest under — the
	// comparator points it at each per-analysis span in turn, and the
	// oracle algorithms re-root it at their iteration spans. Nil (the
	// default) is the untraced path.
	SetTraceSpan(sp *trace.Span)

	// TraceSpan returns the current span (nil when untraced).
	TraceSpan() *trace.Span

	// Stats returns cumulative query statistics.
	Stats() Stats
}

// Stats are cumulative per-engine counters.
type Stats struct {
	Queries      int64
	Conflicts    int64
	Propagations int64
	Decisions    int64
	Restarts     int64
	Learned      int64 // learnt clauses derived across all queries
	Exhausted    int64 // queries that ran out of budget or were aborted

	// Pruned counts queries eliminated before any solving: answers fixed
	// by a sound abstract seed (oracle.Seed) or by an engine memo.
	Pruned int64
	// PortfolioRuns is always 0: SAT queries run on one sequential
	// solver. The field stays because the benchmark module (bench/)
	// reports it as a per-layer metric.
	PortfolioRuns int64
	// EnumQueries counts queries answered by exhaustive enumeration
	// rather than SAT (the small-width fast path).
	EnumQueries int64
	// GatesBuilt / GatesDeduped / Clauses roll up the bit-blaster's
	// construction counters over every circuit the engine touched:
	// Tseitin gates actually encoded, gate requests the structural hash
	// (or a rewrite rule) absorbed, and problem clauses handed to SAT.
	GatesBuilt   int64
	GatesDeduped int64
	Clauses      int64
}

// Add accumulates o into s, for rolling per-engine counters up into
// per-expression or per-campaign totals.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.Decisions += o.Decisions
	s.Restarts += o.Restarts
	s.Learned += o.Learned
	s.Exhausted += o.Exhausted
	s.Pruned += o.Pruned
	s.EnumQueries += o.EnumQueries
	s.GatesBuilt += o.GatesBuilt
	s.GatesDeduped += o.GatesDeduped
	s.Clauses += o.Clauses
}

// addCircuit rolls one circuit's construction counters into the stats.
func (s *Stats) addCircuit(cs bitblast.CircuitStats) {
	s.GatesBuilt += cs.Gates
	s.GatesDeduped += cs.Deduped + cs.Rewrites
	s.Clauses += cs.Clauses
}

// DefaultConflictBudget bounds the conflicts a SATEngine may spend across
// all of its queries, standing in for the paper's 30-second Z3 timeout.
// The budget is shared per engine (and so, with one engine per expression,
// per expression): an oracle run can no longer spend N× the intended
// budget by issuing N queries.
const DefaultConflictBudget = 200000

// DefaultEnumCutoff is the summed-input-width at or below which NewEngine
// prefers exhaustive enumeration over bit-blasting. The bit-sliced
// evaluator sweeps 64 inputs per call, so a full 2^14 pass costs ~256
// block evaluations — still cheaper than a single CNF construction. On
// the Table-1 corpus the break-even for the sliced sweeps sits at 14–16
// summed bits (the scalar interpreter's was 8–10); demanded bits, the
// worst case, pays one more pass that answers every bit of every variable.
const DefaultEnumCutoff = 14

// DemandedSweepBits is the summed input width at or below which a SAT
// engine built by NewEngine answers BitMatters from the exhaustive
// demanded-bits sweep (demanded.go) rather than from miter queries. The
// sweep costs 2^(n-6) block evaluations for all bits together; a miter
// costs one UNSAT proof per undemanded bit, and on multiplier identities
// of i8×i8 expressions, 16 bits just above DefaultEnumCutoff, one proof
// can take thousands of conflicts. On the benchmark's table1 and campaign
// workloads a bound of 17, 18 or 20 gained nothing more, and at 24 bits
// sweeping cost more than solving. Above the bound the engine samples
// instead: at most 8 × (1 + n) block evaluations of drawn lanes prove
// most demanded bits with a witness pair, and only the rest reach a
// miter. Only demanded bits take either path: the other queries stay on
// SAT, whose models decide integer-range bases; the range certificate
// (RefuteWindow) takes the same two paths on either side of the bound.
const DemandedSweepBits = 16

// Config parameterizes NewEngine.
type Config struct {
	// Budget is the engine-wide conflict budget (0 selects
	// DefaultConflictBudget).
	Budget int64
	// Deadline and Ctx cancel queries; see the SATEngine fields.
	Deadline time.Time
	Ctx      context.Context
}

// NewEngine selects the fastest engine for f under cfg: the enumeration
// engine up to DefaultEnumCutoff summed input bits, the (strashed,
// incremental) SAT engine otherwise, answering demanded bits by the
// exhaustive sweep up to DemandedSweepBits and by sampled witness pairs,
// then miters, above it, and giving range certificates from the same
// sweep or samples. All of them decide exactly the same queries, a
// property the cross-check tests enforce on every query type.
func NewEngine(f *ir.Function, cfg Config) Engine {
	total := eval.TotalInputBits(f)
	if total <= DefaultEnumCutoff {
		en := NewEnum(f)
		en.Ctx = cfg.Ctx
		en.Deadline = cfg.Deadline
		return en
	}
	e := NewSAT(f, cfg.Budget)
	e.Deadline = cfg.Deadline
	e.Ctx = cfg.Ctx
	if total <= DemandedSweepBits {
		e.demanded = &demandedSweep{f: f}
	} else {
		e.sample = &demandedSample{f: f}
	}
	return e
}

// SATEngine decides queries by bit-blasting, incrementally: one shared
// solver holds the circuit, each query is posed through assumptions, and
// learned clauses carry over between the many related queries an oracle
// algorithm issues (see incremental.go).
type SATEngine struct {
	f      *ir.Function
	budget int64
	spent  int64 // conflicts consumed so far, against the shared budget
	stats  Stats

	// Memoized feasibility: the first query of all eight oracle
	// algorithms is the same "any well-defined input?" check, so with one
	// engine per expression the answer is computed once.
	feasKnown bool
	feasible  bool

	// witnesses caches output values read from satisfying models: each is
	// an achievable well-defined output, so any later existence query one
	// of them satisfies is answered without the solver (see
	// recordWitness).
	witnesses []apint.Int

	// NoStrash disables structural hashing in the bit-blaster: the
	// reference circuits the tests and ablation benchmarks compare the
	// default strashed ones with. NewEngine never sets it.
	NoStrash bool

	// Deadline, when non-zero, bounds the total dataflow computation per
	// expression — the paper's five-minute cap (§4.1). Queries issued
	// after it return unknown immediately, and a query *in flight* when
	// it expires is aborted within one solver check interval
	// (sat.DefaultAbortCheckEvery propagations); both count as exhausted.
	Deadline time.Time

	// Ctx, when non-nil, cancels queries the same way the deadline does:
	// new queries fail fast and in-flight ones abort at the next check
	// interval. It is how Comparator.RunContext stops workers mid-search.
	Ctx context.Context

	out *outputSession
	mit *miterSession // the demanded-bits variable's miter; see miter

	// demanded, when set (by NewEngine, at most DemandedSweepBits input
	// bits), answers BitMatters by the exhaustive sweep instead of a
	// miter. The sweep spends no conflicts. RefuteWindow then sweeps the
	// whole input space too.
	demanded *demandedSweep
	// sample, when set (by NewEngine, above DemandedSweepBits), answers
	// BitMatters for the bits its sampled witness pairs prove demanded;
	// only the others reach a miter. RefuteWindow then draws its blocks
	// the same way.
	sample *demandedSample

	// span is the trace span queries currently nest under (nil when
	// untraced); see Engine.SetTraceSpan.
	span *trace.Span
}

// SetTraceSpan implements Engine.
func (e *SATEngine) SetTraceSpan(sp *trace.Span) { e.span = sp }

// TraceSpan implements Engine.
func (e *SATEngine) TraceSpan() *trace.Span { return e.span }

// Query classes, the trace dimension cmd/trace-report groups by: validity
// queries prove a fact by UNSAT, model-existence queries want a model
// back (feasibility, CEGIS counterexamples, hull probes), and enum
// queries bypass SAT entirely.
const (
	classValidity  = "validity"
	classExistence = "model-existence"
	classEnum      = "enum"
)

// startQuery opens a leaf query span under the engine's current span and
// snapshots the solver counters it will attribute. Nil when untraced.
func (e *SATEngine) startQuery(name, class string, s *sat.Solver) (*trace.Span, sat.Stats) {
	sp := e.span.Child(trace.KindQuery, name)
	if sp == nil {
		return nil, sat.Stats{}
	}
	sp.SetStr("class", class)
	return sp, s.Stats()
}

// endQuery attributes one query's solver internals — the counter deltas
// since startQuery plus the circuit's CNF size — to its leaf span.
func endQuery(sp *trace.Span, s *sat.Solver, before sat.Stats, st sat.Status) {
	if sp == nil {
		return
	}
	now := s.Stats()
	d := now.Sub(before)
	sp.SetStr("result", st.String())
	sp.SetInt("decisions", d.Decisions)
	sp.SetInt("conflicts", d.Conflicts)
	sp.SetInt("propagations", d.Propagations)
	sp.SetInt("restarts", d.Restarts)
	sp.SetInt("learned", d.Learned)
	sp.SetInt("vars", now.Vars)
	sp.SetInt("clauses", now.Clauses)
	sp.End()
}

// NewSAT returns a SAT-backed engine. budget <= 0 selects
// DefaultConflictBudget. The budget bounds the total conflicts spent
// across every query the engine answers; once it is gone, further queries
// fail fast as exhausted.
func NewSAT(f *ir.Function, budget int64) *SATEngine {
	if budget <= 0 {
		budget = DefaultConflictBudget
	}
	return &SATEngine{f: f, budget: budget}
}

// Stats returns cumulative counters, including the construction counters
// of every incremental session's circuit, retired miters' included.
func (e *SATEngine) Stats() Stats {
	st := e.stats
	if e.out != nil {
		st.addCircuit(e.out.b.C.Stats())
	}
	if e.mit != nil {
		st.addCircuit(e.mit.c.Stats())
	}
	return st
}

// AddPruned implements Engine.
func (e *SATEngine) AddPruned(n int64) { e.stats.Pruned += n }

// remaining returns the unconsumed part of the shared conflict budget.
func (e *SATEngine) remaining() int64 { return e.budget - e.spent }

// outOfBudget reports (and counts as an exhausted query) a query issued
// after the engine's shared conflict budget was used up.
func (e *SATEngine) outOfBudget() bool {
	if e.remaining() > 0 {
		return false
	}
	e.stats.Queries++
	e.stats.Exhausted++
	return true
}

// blast compiles the engine's function onto s, honoring NoStrash.
func (e *SATEngine) blast(s *sat.Solver) *bitblast.Blasted {
	c := bitblast.NewCircuit(s)
	if e.NoStrash {
		c.DisableStrash()
	}
	return bitblast.BlastCircuit(c, e.f)
}

// cancelled reports whether the deadline has passed or ctx is done, i.e.
// no further solver or sweep work may start.
func cancelled(ctx context.Context, deadline time.Time) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

func (e *SATEngine) cancelled() bool { return cancelled(e.Ctx, e.Deadline) }

// pastDeadline reports (and counts as an exhausted query) a query issued
// after the per-expression budget ran out or the context was cancelled.
func (e *SATEngine) pastDeadline() bool {
	if !e.cancelled() {
		return false
	}
	e.stats.Queries++
	e.stats.Exhausted++
	return true
}

// armAbort wires the engine's deadline and context into the solver's
// periodic abort poll, so a query in flight when either fires stops
// within one check interval instead of running to completion.
func (e *SATEngine) armAbort(s *sat.Solver) {
	if e.Deadline.IsZero() && e.Ctx == nil {
		s.Abort = nil
		return
	}
	s.Abort = e.cancelled
}

// EnumEngine answers queries by exhaustive enumeration; only usable when
// the summed input width is small (eval.MaxEnumBits). It enumerates the
// input space once, memoizing the set of achievable outputs, so each of
// the oracle's many output queries is a scan over at most 2^w values
// instead of a fresh 2^inputs interpreter sweep; demanded-bits queries
// are all answered by one more pass, the demanded-bits sweep.
type EnumEngine struct {
	f        *ir.Function
	sliced   *eval.SlicedProgram
	stats    Stats
	span     *trace.Span
	demanded demandedSweep

	// Ctx, when non-nil, cancels enumeration: queries issued after it is
	// done (or interrupted mid-sweep) return not-ok, counted exhausted.
	Ctx context.Context
	// Deadline, when non-zero, bounds enumeration the same way the SAT
	// engine's deadline bounds solving.
	Deadline time.Time

	enumerated bool
	// outputs holds the achievable root values as raw words, in
	// first-seen order (eval.SlicedProgram.Outputs). The order is part of
	// the answers: OutputOutside returns the first value outside its
	// window, that value feeds Algorithm 3's CEGIS loop, and CEGIS picks
	// between range bases of equal size by the samples it has seen.
	outputs []uint64
}

// NewEnum returns an enumeration-backed engine. Sweeps run on the
// bit-sliced evaluator: 64 input vectors per call, so the whole space
// costs 2^total/64 block evaluations.
func NewEnum(f *ir.Function) *EnumEngine {
	if eval.TotalInputBits(f) > eval.MaxEnumBits {
		panic("solver: function too wide for EnumEngine")
	}
	sliced := eval.CompileSliced(f)
	return &EnumEngine{f: f, sliced: sliced, demanded: demandedSweep{f: f, sliced: sliced}}
}

// Stats returns cumulative counters.
func (e *EnumEngine) Stats() Stats { return e.stats }

// AddPruned implements Engine.
func (e *EnumEngine) AddPruned(n int64) { e.stats.Pruned += n }

// SetTraceSpan implements Engine.
func (e *EnumEngine) SetTraceSpan(sp *trace.Span) { e.span = sp }

// TraceSpan implements Engine.
func (e *EnumEngine) TraceSpan() *trace.Span { return e.span }

// startEnum opens a per-query span of class enum under parent. The sweep
// spans (enum-sweep, demanded-sweep) nest under it, so a Perfetto view
// shows exactly which query paid for the one-time 2^n pass.
func startEnum(parent *trace.Span, name string) *trace.Span {
	sp := parent.Child(trace.KindQuery, name)
	sp.SetStr("class", classEnum)
	return sp
}

func endEnum(sp *trace.Span, found, ok bool) {
	if sp == nil {
		return
	}
	switch {
	case !ok:
		sp.SetStr("result", "exhausted")
	case found:
		sp.SetStr("result", "sat")
	default:
		sp.SetStr("result", "unsat")
	}
	sp.End()
}

func (e *EnumEngine) cancelled() bool { return cancelled(e.Ctx, e.Deadline) }

// ensureOutputs runs the one-time enumeration of achievable outputs. It
// returns false (without caching a partial result) when the context
// cancels the sweep.
func (e *EnumEngine) ensureOutputs(parent *trace.Span) bool {
	if e.enumerated {
		return true
	}
	if e.cancelled() {
		return false
	}
	sweep := parent.Child(trace.KindIter, "enum-sweep")
	outs, evals, ok := e.sliced.Outputs(false, e.cancelled)
	sweep.SetInt("evals", evals)
	sweep.End()
	if !ok {
		return false
	}
	e.outputs = outs
	e.enumerated = true
	return true
}

// exists scans the memoized achievable outputs for one satisfying pred.
func (e *EnumEngine) exists(name string, pred func(v apint.Int) bool) (found, ok bool) {
	e.stats.Queries++
	e.stats.EnumQueries++
	sp := startEnum(e.span, name)
	if !e.ensureOutputs(sp) {
		e.stats.Exhausted++
		endEnum(sp, false, false)
		return false, false
	}
	w := e.f.Width()
	for _, v := range e.outputs {
		if pred(apint.New(w, v)) {
			endEnum(sp, true, true)
			return true, true
		}
	}
	endEnum(sp, false, true)
	return false, true
}

// Feasible implements Engine.
func (e *EnumEngine) Feasible() (bool, bool) {
	return e.exists("feasible", func(apint.Int) bool { return true })
}

// OutputBitCanBe implements Engine.
func (e *EnumEngine) OutputBitCanBe(i uint, val bool) (bool, bool) {
	return e.exists("output-bit", func(v apint.Int) bool { return v.Bit(i) == val })
}

// SignBitsViolated implements Engine.
func (e *EnumEngine) SignBitsViolated(k uint) (bool, bool) {
	return e.exists("sign-bits", func(v apint.Int) bool { return v.NumSignBits() < k })
}

// CanBeZero implements Engine.
func (e *EnumEngine) CanBeZero() (bool, bool) {
	return e.exists("zero", apint.Int.IsZero)
}

// CanBeNonPowerOfTwo implements Engine.
func (e *EnumEngine) CanBeNonPowerOfTwo() (bool, bool) {
	return e.exists("non-pow2", func(v apint.Int) bool { return !v.IsPowerOfTwo() })
}

// OutputOutside implements Engine.
func (e *EnumEngine) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	e.stats.Queries++
	e.stats.EnumQueries++
	sp := startEnum(e.span, "outside")
	if !e.ensureOutputs(sp) {
		e.stats.Exhausted++
		endEnum(sp, false, false)
		return apint.Int{}, false, false
	}
	// v lies in the wrapped window [lo, lo+size) iff (v - lo) mod 2^w
	// < size. A size of zero leaves every output outside.
	w := e.f.Width()
	m := apint.AllOnes(w).Uint64()
	l, n := lo.Uint64(), size.Uint64()
	for _, v := range e.outputs {
		if (v-l)&m >= n {
			endEnum(sp, true, true)
			return apint.New(w, v), true, true
		}
	}
	endEnum(sp, false, true)
	return apint.Int{}, false, true
}

// BitMatters implements Engine: the one demanded-bits sweep answers every
// bit of every variable.
func (e *EnumEngine) BitMatters(v *ir.Inst, bit uint) (bool, bool) {
	return e.demanded.bitMatters(&e.stats, e.span, e.Ctx, e.Deadline, v, bit)
}
