package solver

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
)

// This file implements SATEngine's queries. Instead of bit-blasting a
// fresh solver per query, one solver holds the circuit and each query is
// posed through assumptions, so learned clauses carry over between the 2w
// known-bits queries, the sign-bit ladder, and the range search — the
// same trick incremental SMT solvers play under the paper's algorithms.
// fresh_test.go keeps a one-solver-per-query engine as the reference
// these answers are cross-checked against.
//
// For BitMatters (Algorithm 2), the second program copy reads its inputs
// through per-bit selectors:
//
//	x2[i] = sel[i] ? ¬x[i] : x[i]  (= sel[i] ⊕ x[i])
//
// so one miter circuit serves all w queries for a variable, each query
// asserting exactly one selector through assumptions.

// outputSession is the shared circuit for queries about the root value.
type outputSession struct {
	s        *sat.Solver
	b        *bitblast.Blasted
	signEq   map[uint]sat.Lit // k -> "top k bits all equal"
	zeroLit  sat.Lit
	pow2Lit  sat.Lit
	haveZero bool
	havePow2 bool
}

func (e *SATEngine) output() *outputSession {
	if e.out == nil {
		s := sat.New()
		e.out = &outputSession{
			s:      s,
			b:      e.blast(s),
			signEq: make(map[uint]sat.Lit),
		}
	}
	return e.out
}

// solveAssuming runs one budgeted query on a shared solver, accumulating
// the per-query statistics deltas. The conflict budget is shared across
// the whole engine: each query may spend only what earlier queries left.
// name/class label the query's trace span; on the shared solver the span
// carries this query's counter deltas, not lifetime totals.
func (e *SATEngine) solveAssuming(name, class string, s *sat.Solver, assumptions ...sat.Lit) (bool, bool) {
	if e.pastDeadline() || e.outOfBudget() {
		return false, false
	}
	before := s.Stats()
	s.ConflictBudget = s.Conflicts + e.remaining()
	e.armAbort(s)
	sp, _ := e.startQuery(name, class, s)
	st := s.Solve(assumptions...)
	endQuery(sp, s, before, st)
	delta := s.Stats().Sub(before)
	e.spent += delta.Conflicts
	e.stats.Queries++
	e.stats.Conflicts += delta.Conflicts
	e.stats.Propagations += delta.Propagations
	e.stats.Decisions += delta.Decisions
	e.stats.Restarts += delta.Restarts
	e.stats.Learned += delta.Learned
	if st == sat.Unknown {
		e.stats.Exhausted++
		return false, false
	}
	return st == sat.Sat, true
}

// maxWitnesses caps the model-witness cache: beyond it, hits still prune
// but new models are no longer remembered.
const maxWitnesses = 128

// recordWitness saves the output value of the session's current model.
// Every model of an output query satisfies WellDefined, so its output is
// an achievable value — a reusable positive answer for any later
// existence query it happens to satisfy.
func (e *SATEngine) recordWitness(o *outputSession) apint.Int {
	v := o.b.C.Value(o.b.Output)
	if len(e.witnesses) < maxWitnesses {
		for _, w := range e.witnesses {
			if w.Eq(v) {
				return v
			}
		}
		e.witnesses = append(e.witnesses, v)
	}
	return v
}

// witness scans cached model outputs for one satisfying pred; a hit
// decides an output-existence query with zero solver work (counted as
// pruned by the callers).
func (e *SATEngine) witness(pred func(apint.Int) bool) (apint.Int, bool) {
	for _, w := range e.witnesses {
		if pred(w) {
			return w, true
		}
	}
	return apint.Int{}, false
}

// Feasible implements Engine.
func (e *SATEngine) Feasible() (bool, bool) {
	if e.feasKnown {
		e.stats.Pruned++
		return e.feasible, true
	}
	o := e.output()
	r, ok := e.solveAssuming("feasible", classExistence, o.s, o.b.WellDefined)
	if ok {
		e.feasible, e.feasKnown = r, true
		if r {
			e.recordWitness(o)
		}
	}
	return r, ok
}

// OutputBitCanBe implements Engine.
func (e *SATEngine) OutputBitCanBe(i uint, val bool) (bool, bool) {
	if _, hit := e.witness(func(v apint.Int) bool { return v.Bit(i) == val }); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	l := o.b.Output[i]
	if !val {
		l = l.Not()
	}
	res, ok := e.solveAssuming("output-bit", classValidity, o.s, o.b.WellDefined, l)
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

// SignBitsViolated implements Engine.
func (e *SATEngine) SignBitsViolated(k uint) (bool, bool) {
	if _, hit := e.witness(func(v apint.Int) bool { return v.NumSignBits() < k }); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	eq, ok := o.signEq[k]
	if !ok {
		w := uint(len(o.b.Output))
		sign := o.b.Output[w-1]
		eq = o.b.C.True()
		for i := w - k; i < w-1; i++ {
			eq = o.b.C.And(eq, o.b.C.Xnor(o.b.Output[i], sign))
		}
		o.signEq[k] = eq
	}
	res, ok := e.solveAssuming("sign-bits", classValidity, o.s, o.b.WellDefined, eq.Not())
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

// CanBeZero implements Engine.
func (e *SATEngine) CanBeZero() (bool, bool) {
	if _, hit := e.witness(apint.Int.IsZero); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	if !o.haveZero {
		o.zeroLit = o.b.C.OrN(o.b.Output...).Not()
		o.haveZero = true
	}
	res, ok := e.solveAssuming("zero", classValidity, o.s, o.b.WellDefined, o.zeroLit)
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

// CanBeNonPowerOfTwo implements Engine.
func (e *SATEngine) CanBeNonPowerOfTwo() (bool, bool) {
	if _, hit := e.witness(func(v apint.Int) bool { return !v.IsPowerOfTwo() }); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	if !o.havePow2 {
		c := o.b.C
		w := uint(len(o.b.Output))
		nonZero := c.OrN(o.b.Output...)
		minusOne, _ := c.Sub(o.b.Output, c.ConstWord(apint.One(w)))
		masked := c.AndWord(o.b.Output, minusOne)
		o.pow2Lit = c.And(nonZero, c.OrN(masked...).Not())
		o.havePow2 = true
	}
	res, ok := e.solveAssuming("non-pow2", classValidity, o.s, o.b.WellDefined, o.pow2Lit.Not())
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

// outsideWindow reports v ∉ [lo, lo+size) with the engine's wrapping
// conventions (size 0 = empty window, lo+size == lo = full window).
func outsideWindow(v, lo, size apint.Int) bool {
	if size.IsZero() {
		return true
	}
	hi := lo.Add(size)
	if hi.Eq(lo) {
		return false
	}
	if lo.ULT(hi) {
		return !(v.UGE(lo) && v.ULT(hi))
	}
	return !(v.UGE(lo) || v.ULT(hi))
}

// OutputOutside implements Engine.
func (e *SATEngine) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	if w, hit := e.witness(func(v apint.Int) bool { return outsideWindow(v, lo, size) }); hit {
		e.stats.Pruned++
		return w, true, true
	}
	o := e.output()
	c := o.b.C
	var outside sat.Lit
	if size.IsZero() {
		outside = c.True() // empty window: everything is outside
	} else {
		hi := lo.Add(size)
		if hi.Eq(lo) {
			return apint.Int{}, false, true // full window: nothing outside
		}
		geLo := c.ULT(o.b.Output, c.ConstWord(lo)).Not()
		ltHi := c.ULT(o.b.Output, c.ConstWord(hi))
		if lo.ULT(hi) {
			outside = c.And(geLo, ltHi).Not()
		} else {
			outside = c.Or(geLo, ltHi).Not()
		}
	}
	res, ok := e.solveAssuming("outside", classExistence, o.s, o.b.WellDefined, outside)
	if !ok || !res {
		return apint.Int{}, res, ok
	}
	return e.recordWitness(o), true, true
}

// miterSession is the per-variable shared circuit for demanded-bits
// queries: a second copy of the function whose inputs run through
// per-bit selectors.
type miterSession struct {
	s      *sat.Solver
	c      *bitblast.Circuit
	differ sat.Lit   // outputs differ ∧ both copies well-defined
	sel    []sat.Lit // sel[i] flips bit i in the second copy
}

func (e *SATEngine) miter(v *ir.Inst) *miterSession {
	if m, ok := e.miters[v]; ok {
		return m
	}
	s := sat.New()
	b1 := e.blast(s)
	c := b1.C

	w := v.Width
	sel := make([]sat.Lit, w)
	flipped := make(bitblast.Word, w)
	orig := b1.Inputs[v]
	for i := uint(0); i < w; i++ {
		sel[i] = c.Lit()
		flipped[i] = c.Xor(sel[i], orig[i]) // sel[i] ? ¬x[i] : x[i]
	}
	inputs2 := make(map[*ir.Inst]bitblast.Word, len(b1.Inputs))
	for iv, word := range b1.Inputs {
		inputs2[iv] = word
	}
	inputs2[v] = flipped
	b2 := bitblast.BlastWith(c, e.f, inputs2)

	m := &miterSession{
		s:      s,
		c:      c,
		differ: c.AndN(b1.WellDefined, b2.WellDefined, c.Eq(b1.Output, b2.Output).Not()),
		sel:    sel,
	}
	if e.miters == nil {
		e.miters = make(map[*ir.Inst]*miterSession)
	}
	e.miters[v] = m
	return m
}

// BitMatters implements Engine: from the demanded-bits sweep when
// NewEngine routed the engine to it, otherwise by a sampled witness pair
// when NewEngine gave the engine the sampler and it found one, otherwise
// by one miter query. A variable's miter is built on its first query.
func (e *SATEngine) BitMatters(v *ir.Inst, bit uint) (bool, bool) {
	if e.demanded != nil {
		return e.demanded.bitMatters(&e.stats, e.span, e.Ctx, e.Deadline, v, bit)
	}
	if e.sample != nil && e.sample.bitMatters(&e.stats, e.span, e.Ctx, e.Deadline, v, bit) {
		return true, true
	}
	m := e.miter(v)
	assumptions := make([]sat.Lit, 0, len(m.sel)+1)
	assumptions = append(assumptions, m.differ)
	for i, sl := range m.sel {
		if uint(i) != bit {
			sl = sl.Not()
		}
		assumptions = append(assumptions, sl)
	}
	return e.solveAssuming("bit-matters", classValidity, m.s, assumptions...)
}
