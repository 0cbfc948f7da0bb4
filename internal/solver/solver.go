// Package solver answers the dataflow queries the oracle algorithms pose,
// in terms of a single abstract Engine interface with two implementations:
//
//   - SATEngine bit-blasts the function and decides each query with the
//     CDCL solver — the production path, standing in for the paper's Z3.
//   - EnumEngine decides queries by exhaustive input enumeration — usable
//     only at small widths, and used to cross-check SATEngine in tests.
//
// Every query is implicitly conjoined with "the execution is well-defined"
// (no UB, range metadata satisfied), mirroring Souper's UB-aware
// quantification. Answers carry an ok flag: ok=false means the engine's
// resource budget was exhausted (the paper's 30-second solver timeout,
// surfaced in Table 1's "resource exhaustion" column).
package solver

import (
	"context"
	mathbits "math/bits"
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
// worst case, now pays one 64-lane sweep per input variable instead of a
// scalar sweep per variable bit.
const DefaultEnumCutoff = 14

// Config parameterizes NewEngine.
type Config struct {
	// Budget is the engine-wide conflict budget (0 selects
	// DefaultConflictBudget).
	Budget int64
	// Deadline and Ctx cancel queries; see the SATEngine fields.
	Deadline time.Time
	Ctx      context.Context
	// NoStrash disables structural hashing in the bit-blaster — the
	// ablation path behind the -no-strash flag.
	NoStrash bool
	// EnumCutoff routes functions whose summed input width is at or
	// below the cutoff to the enumeration engine. 0 selects
	// DefaultEnumCutoff; negative disables the fast path entirely.
	EnumCutoff int
}

// NewEngine selects the fastest engine for f under cfg: the enumeration
// engine below the small-width cutoff, the (strashed, incremental) SAT
// engine otherwise. Both decide exactly the same queries, a property the
// cross-check tests enforce on every query type.
func NewEngine(f *ir.Function, cfg Config) Engine {
	cut := cfg.EnumCutoff
	if cut == 0 {
		cut = DefaultEnumCutoff
	}
	if cut > eval.MaxEnumBits {
		cut = eval.MaxEnumBits
	}
	if cut > 0 && eval.TotalInputBits(f) <= uint(cut) {
		en := NewEnum(f)
		en.Ctx = cfg.Ctx
		en.Deadline = cfg.Deadline
		return en
	}
	e := NewSAT(f, cfg.Budget)
	e.Deadline = cfg.Deadline
	e.Ctx = cfg.Ctx
	e.NoStrash = cfg.NoStrash
	return e
}

// SATEngine decides queries by bit-blasting. By default it runs
// incrementally: one shared solver holds the circuit, each query is posed
// through assumptions, and learned clauses carry over between the many
// related queries an oracle algorithm issues (see incremental.go). Set
// Fresh to give every query its own solver instead (the simpler mode the
// incremental path is cross-checked against).
type SATEngine struct {
	f      *ir.Function
	budget int64
	spent  int64 // conflicts consumed so far, against the shared budget
	stats  Stats

	// Memoized feasibility: the first query of all eight oracle
	// algorithms is the same "any well-defined input?" check, so with one
	// engine per expression the answer is computed once (incremental path
	// only; the Fresh ablation stays memo-free).
	feasKnown bool
	feasible  bool

	// witnesses caches output values read from satisfying models: each is
	// an achievable well-defined output, so any later existence query one
	// of them satisfies is answered without the solver (incremental path
	// only; see recordWitness).
	witnesses []apint.Int

	// Fresh disables incremental solving.
	Fresh bool

	// NoStrash disables structural hashing in the bit-blaster — the
	// ablation path cross-checked against the default strashed circuits.
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

	out    *outputSession
	miters map[*ir.Inst]*miterSession

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
// of the live incremental sessions' circuits.
func (e *SATEngine) Stats() Stats {
	st := e.stats
	if e.out != nil {
		st.addCircuit(e.out.b.C.Stats())
	}
	for _, m := range e.miters {
		st.addCircuit(m.c.Stats())
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

// cancelled reports whether the deadline has passed or the context is
// done, i.e. no further solver work may start.
func (e *SATEngine) cancelled() bool {
	if e.Ctx != nil && e.Ctx.Err() != nil {
		return true
	}
	return !e.Deadline.IsZero() && !time.Now().Before(e.Deadline)
}

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

// query solves WellDefined ∧ pred(blasted) on a fresh solver.
func (e *SATEngine) query(name, class string, pred func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit) (*bitblast.Blasted, bool, bool) {
	if e.pastDeadline() || e.outOfBudget() {
		return nil, false, false
	}
	s := sat.New()
	s.ConflictBudget = e.remaining()
	e.armAbort(s)
	b := e.blast(s)
	cond := b.C.And(b.WellDefined, pred(b.C, b))
	s.AddClause(cond)
	sp, before := e.startQuery(name, class, s)
	st := s.Solve()
	endQuery(sp, s, before, st)
	e.stats.Queries++
	e.spent += s.Conflicts
	e.addSolve(s.Stats())
	e.stats.addCircuit(b.C.Stats())
	if st == sat.Unknown {
		e.stats.Exhausted++
		return nil, false, false
	}
	return b, st == sat.Sat, true
}

// addSolve rolls one fresh solver's whole-run counters into the engine
// stats (the fresh-path analog of solveAssuming's delta accounting).
func (e *SATEngine) addSolve(st sat.Stats) {
	e.stats.Conflicts += st.Conflicts
	e.stats.Propagations += st.Propagations
	e.stats.Decisions += st.Decisions
	e.stats.Restarts += st.Restarts
	e.stats.Learned += st.Learned
}

// Feasible implements Engine.
func (e *SATEngine) Feasible() (bool, bool) {
	if !e.Fresh {
		return e.incFeasible()
	}
	_, res, ok := e.query("feasible", classExistence, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		return c.True()
	})
	return res, ok
}

// OutputBitCanBe implements Engine.
func (e *SATEngine) OutputBitCanBe(i uint, val bool) (bool, bool) {
	if !e.Fresh {
		return e.incOutputBitCanBe(i, val)
	}
	_, res, ok := e.query("output-bit", classValidity, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		l := b.Output[i]
		if !val {
			l = l.Not()
		}
		return l
	})
	return res, ok
}

// SignBitsViolated implements Engine.
func (e *SATEngine) SignBitsViolated(k uint) (bool, bool) {
	if !e.Fresh {
		return e.incSignBitsViolated(k)
	}
	_, res, ok := e.query("sign-bits", classValidity, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		w := uint(len(b.Output))
		sign := b.Output[w-1]
		allEq := c.True()
		for i := w - k; i < w-1; i++ {
			allEq = c.And(allEq, c.Xnor(b.Output[i], sign))
		}
		return allEq.Not()
	})
	return res, ok
}

// CanBeZero implements Engine.
func (e *SATEngine) CanBeZero() (bool, bool) {
	if !e.Fresh {
		return e.incCanBeZero()
	}
	_, res, ok := e.query("zero", classValidity, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		return c.OrN(b.Output...).Not()
	})
	return res, ok
}

// CanBeNonPowerOfTwo implements Engine.
func (e *SATEngine) CanBeNonPowerOfTwo() (bool, bool) {
	if !e.Fresh {
		return e.incCanBeNonPowerOfTwo()
	}
	_, res, ok := e.query("non-pow2", classValidity, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		// pow2(x): x != 0 and x & (x-1) == 0.
		w := uint(len(b.Output))
		nonZero := c.OrN(b.Output...)
		minusOne, _ := c.Sub(b.Output, c.ConstWord(apint.One(w)))
		masked := c.AndWord(b.Output, minusOne)
		isPow2 := c.And(nonZero, c.OrN(masked...).Not())
		return isPow2.Not()
	})
	return res, ok
}

// OutputOutside implements Engine.
func (e *SATEngine) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	if !e.Fresh {
		return e.incOutputOutside(lo, size)
	}
	if size.IsZero() {
		// [lo, lo+0) is empty: everything is outside; find any output.
		b, res, ok := e.query("outside", classExistence, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
			return c.True()
		})
		if !ok || !res {
			return apint.Int{}, res, ok
		}
		return b.C.Value(b.Output), true, true
	}
	hi := lo.Add(size) // exclusive; lo == hi means the full set
	if hi.Eq(lo) {
		return apint.Int{}, false, true // full set: nothing outside
	}
	b, res, ok := e.query("outside", classExistence, func(c *bitblast.Circuit, bl *bitblast.Blasted) sat.Lit {
		geLo := c.ULT(bl.Output, c.ConstWord(lo)).Not()
		ltHi := c.ULT(bl.Output, c.ConstWord(hi))
		var inside sat.Lit
		if lo.ULT(hi) {
			inside = c.And(geLo, ltHi)
		} else {
			inside = c.Or(geLo, ltHi)
		}
		return inside.Not()
	})
	if !ok || !res {
		return apint.Int{}, res, ok
	}
	return b.C.Value(b.Output), true, true
}

// BitMatters implements Engine.
func (e *SATEngine) BitMatters(v *ir.Inst, bit uint) (bool, bool) {
	if !e.Fresh {
		return e.incBitMatters(v, bit)
	}
	if e.pastDeadline() || e.outOfBudget() {
		return false, false
	}
	s := sat.New()
	s.ConflictBudget = e.remaining()
	e.armAbort(s)
	b1 := e.blast(s)
	c := b1.C

	inputs2 := make(map[*ir.Inst]bitblast.Word, len(b1.Inputs))
	for iv, word := range b1.Inputs {
		inputs2[iv] = word
	}
	flipped := append(bitblast.Word{}, b1.Inputs[v]...)
	flipped[bit] = flipped[bit].Not()
	inputs2[v] = flipped
	b2 := bitblast.BlastWith(c, e.f, inputs2)

	differ := c.Eq(b1.Output, b2.Output).Not()
	cond := c.AndN(b1.WellDefined, b2.WellDefined, differ)
	s.AddClause(cond)
	sp, before := e.startQuery("bit-matters", classValidity, s)
	st := s.Solve()
	endQuery(sp, s, before, st)
	e.stats.Queries++
	e.spent += s.Conflicts
	e.addSolve(s.Stats())
	e.stats.addCircuit(c.Stats())
	if st == sat.Unknown {
		e.stats.Exhausted++
		return false, false
	}
	return st == sat.Sat, true
}

// EnumEngine answers queries by exhaustive enumeration; only usable when
// the summed input width is small (eval.MaxEnumBits). It enumerates the
// input space once, memoizing the set of achievable outputs, so each of
// the oracle's many output queries is a scan over at most 2^w values
// instead of a fresh 2^inputs interpreter sweep; demanded-bits queries
// similarly compute one per-variable matrix in a single pass.
type EnumEngine struct {
	f      *ir.Function
	sliced *eval.SlicedProgram
	stats  Stats
	span   *trace.Span

	// Ctx, when non-nil, cancels enumeration: queries issued after it is
	// done (or interrupted mid-sweep) return not-ok, counted exhausted.
	Ctx context.Context
	// Deadline, when non-zero, bounds enumeration the same way the SAT
	// engine's deadline bounds solving.
	Deadline time.Time

	enumerated bool
	feasible   bool
	outputs    []apint.Int // achievable outputs, first-seen order
	demanded   map[*ir.Inst][]bool
}

// enumCancelBlockMask polls the context every 64 sliced blocks (4096
// evaluations) during an enumeration sweep.
const enumCancelBlockMask = 63

// NewEnum returns an enumeration-backed engine. Sweeps run on the
// bit-sliced evaluator: 64 input vectors per call, so the whole space
// costs 2^total/64 block evaluations.
func NewEnum(f *ir.Function) *EnumEngine {
	if eval.TotalInputBits(f) > eval.MaxEnumBits {
		panic("solver: function too wide for EnumEngine")
	}
	return &EnumEngine{f: f, sliced: eval.CompileSliced(f)}
}

// Stats returns cumulative counters.
func (e *EnumEngine) Stats() Stats { return e.stats }

// AddPruned implements Engine.
func (e *EnumEngine) AddPruned(n int64) { e.stats.Pruned += n }

// SetTraceSpan implements Engine.
func (e *EnumEngine) SetTraceSpan(sp *trace.Span) { e.span = sp }

// TraceSpan implements Engine.
func (e *EnumEngine) TraceSpan() *trace.Span { return e.span }

// startEnum opens a per-query span on the enumeration path. The sweep
// spans (enum-sweep, demanded-sweep) nest under it, so a Perfetto view
// shows exactly which query paid for the one-time 2^n pass.
func (e *EnumEngine) startEnum(name string) *trace.Span {
	sp := e.span.Child(trace.KindQuery, name)
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

func (e *EnumEngine) cancelled() bool {
	if e.Ctx != nil && e.Ctx.Err() != nil {
		return true
	}
	return !e.Deadline.IsZero() && !time.Now().Before(e.Deadline)
}

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
	w := e.f.Root.Width
	count := uint64(1) << eval.TotalInputBits(e.f)
	// Dedup through a bitset: the root is at most 64 bits wide, but any
	// enumerable function's achievable-output count is bounded by the
	// input count, so a map fallback only matters for wide roots.
	var seenSet []uint64
	var seenMap map[uint64]bool
	if w <= 16 {
		seenSet = make([]uint64, (uint64(1)<<w+63)/64)
	} else {
		seenMap = make(map[uint64]bool)
	}
	var outs []apint.Int
	var n int64
	ok := true
	for base, blocks := uint64(0), 0; base < count; base += 64 {
		if blocks++; blocks&enumCancelBlockMask == 0 && e.cancelled() {
			ok = false
			break
		}
		planes, okm := e.sliced.EvalIndexed(base)
		n += 64
		for ; okm != 0; okm &= okm - 1 {
			l := uint(mathbits.TrailingZeros64(okm))
			v := eval.Lane(planes, l)
			if seenSet != nil {
				if seenSet[v>>6]>>(v&63)&1 == 1 {
					continue
				}
				seenSet[v>>6] |= 1 << (v & 63)
			} else {
				if seenMap[v] {
					continue
				}
				seenMap[v] = true
			}
			outs = append(outs, apint.New(w, v))
		}
	}
	if sweep != nil {
		sweep.SetInt("evals", n)
		sweep.End()
	}
	if !ok {
		return false
	}
	e.outputs = outs
	e.feasible = len(outs) > 0
	e.enumerated = true
	return true
}

// exists scans the memoized achievable outputs for one satisfying pred.
func (e *EnumEngine) exists(name string, pred func(v apint.Int) bool) (found, ok bool) {
	e.stats.Queries++
	e.stats.EnumQueries++
	sp := e.startEnum(name)
	if !e.ensureOutputs(sp) {
		e.stats.Exhausted++
		endEnum(sp, false, false)
		return false, false
	}
	for _, v := range e.outputs {
		if pred(v) {
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
	sp := e.startEnum("outside")
	if !e.ensureOutputs(sp) {
		e.stats.Exhausted++
		endEnum(sp, false, false)
		return apint.Int{}, false, false
	}
	hi := lo.Add(size)
	full := !size.IsZero() && hi.Eq(lo)
	for _, v := range e.outputs {
		inside := full
		if !full && !size.IsZero() {
			if lo.ULT(hi) {
				inside = v.UGE(lo) && v.ULT(hi)
			} else {
				inside = v.UGE(lo) || v.ULT(hi)
			}
		}
		if !inside {
			endEnum(sp, true, true)
			return v, true, true
		}
	}
	endEnum(sp, false, true)
	return apint.Int{}, false, true
}

// BitMatters implements Engine: one memoized per-variable matrix answers
// every bit of v.
func (e *EnumEngine) BitMatters(v *ir.Inst, bit uint) (bool, bool) {
	e.stats.Queries++
	e.stats.EnumQueries++
	sp := e.startEnum("bit-matters")
	m, ok := e.demandedFor(sp, v)
	if !ok {
		e.stats.Exhausted++
		endEnum(sp, false, false)
		return false, false
	}
	endEnum(sp, m[bit], true)
	return m[bit], true
}

// demandedFor computes whether each bit of v can change the output: a bit
// is demanded iff some pair of well-defined inputs differing only in that
// bit produces different outputs (the two-copy well-definedness condition
// of Algorithm 2). On the sliced evaluator a bit's two sides are either
// lanes of the same block (packed position < 6: one sweep decides all
// such bits via in-register butterflies) or corresponding lanes of two
// sibling blocks (position ≥ 6: one sweep per bit over the bit-clear half
// of the space, evaluating each sibling pair once).
func (e *EnumEngine) demandedFor(parent *trace.Span, v *ir.Inst) ([]bool, bool) {
	if m, ok := e.demanded[v]; ok {
		return m, true
	}
	if e.cancelled() {
		return nil, false
	}
	sweep := parent.Child(trace.KindIter, "demanded-sweep")
	sweep.SetStr("var", v.Name)

	var varOff uint // packed-index offset of v's bits (LSB-first layout)
	for _, u := range e.f.Vars {
		if u == v {
			break
		}
		varOff += u.Width
	}
	count := uint64(1) << eval.TotalInputBits(e.f)
	m := make([]bool, v.Width)
	undecided := int(v.Width) // bits not yet proven demanded
	var n int64
	ok := true

	// Pass 1: bits whose packed position lands inside a block. The
	// sibling of lane l is lane l^(1<<pos) of the same block, so one
	// sweep decides every such bit at once.
	if lowBits := int(6 - varOff); lowBits > 0 {
		if lowBits > int(v.Width) {
			lowBits = int(v.Width)
		}
		lowUndecided := lowBits
		for base, blocks := uint64(0), 0; base < count && lowUndecided > 0; base += 64 {
			if blocks++; blocks&enumCancelBlockMask == 0 && e.cancelled() {
				ok = false
				break
			}
			planes, okm := e.sliced.EvalIndexed(base)
			n += 64
			if okm == 0 {
				continue
			}
			for bit := uint(0); bit < uint(lowBits); bit++ {
				if m[bit] {
					continue
				}
				pos := varOff + bit
				d := uint(1) << pos
				mSet := eval.LaneIndex[pos]
				okSib := ((okm >> d) &^ mSet) | ((okm << d) & mSet)
				both := okm & okSib
				if both == 0 {
					continue
				}
				var diff uint64
				for _, p := range planes {
					q := ((p >> d) &^ mSet) | ((p << d) & mSet)
					diff |= p ^ q
				}
				if diff&both != 0 {
					m[bit] = true
					undecided--
					lowUndecided--
				}
			}
		}
	}

	// Pass 2: bits at packed positions ≥ 6 pair corresponding lanes of
	// sibling blocks base and base^(1<<pos); visit each pair once from
	// the bit-clear side. EvalIndexed reuses its buffers, so block A's
	// root and ok mask are copied out before evaluating block B.
	rootA := make([]uint64, e.f.Root.Width)
	blocks := 0
	for bit := uint(0); ok && undecided > 0 && bit < v.Width; bit++ {
		pos := varOff + bit
		if pos < 6 || m[bit] {
			continue
		}
		step := uint64(1) << pos
	pairSweep:
		for hi := uint64(0); hi < count && !m[bit]; hi += 2 * step {
			for base := hi; base < hi+step && !m[bit]; base += 64 {
				if blocks++; blocks&(enumCancelBlockMask>>1) == 0 && e.cancelled() {
					ok = false
					break pairSweep
				}
				pA, okA := e.sliced.EvalIndexed(base)
				copy(rootA, pA)
				pB, okB := e.sliced.EvalIndexed(base ^ step)
				n += 128
				both := okA & okB
				if both == 0 {
					continue
				}
				var diff uint64
				for i, p := range pB {
					diff |= rootA[i] ^ p
				}
				if diff&both != 0 {
					m[bit] = true
					undecided--
				}
			}
		}
	}

	if sweep != nil {
		sweep.SetInt("evals", n)
		sweep.End()
	}
	if !ok {
		return nil, false
	}
	if e.demanded == nil {
		e.demanded = make(map[*ir.Inst][]bool)
	}
	e.demanded[v] = m
	return m, true
}
