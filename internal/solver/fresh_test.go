package solver

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
)

// freshSAT is the one-solver-per-query SAT path: every query bit-blasts
// the function onto a new solver, with no shared learned clauses, no
// feasibility memo and no witness cache. It shares the engine's budget,
// deadline, context and statistics, and is the reference the incremental
// SATEngine is cross-checked against (TestIncrementalMatchesFresh,
// TestDeadlineAbortsInFlightQueryFresh).
type freshSAT struct{ *SATEngine }

func newFreshSAT(f *ir.Function, budget int64) freshSAT { return freshSAT{NewSAT(f, budget)} }

// query solves WellDefined ∧ pred(blasted) on a fresh solver.
func (e freshSAT) query(name, class string, pred func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit) (*bitblast.Blasted, bool, bool) {
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
// stats (the analog of solveAssuming's delta accounting).
func (e freshSAT) addSolve(st sat.Stats) {
	e.stats.Conflicts += st.Conflicts
	e.stats.Propagations += st.Propagations
	e.stats.Decisions += st.Decisions
	e.stats.Restarts += st.Restarts
	e.stats.Learned += st.Learned
}

func (e freshSAT) Feasible() (bool, bool) {
	_, res, ok := e.query("feasible", classExistence, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		return c.True()
	})
	return res, ok
}

func (e freshSAT) OutputBitCanBe(i uint, val bool) (bool, bool) {
	_, res, ok := e.query("output-bit", classValidity, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		l := b.Output[i]
		if !val {
			l = l.Not()
		}
		return l
	})
	return res, ok
}

func (e freshSAT) SignBitsViolated(k uint) (bool, bool) {
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

func (e freshSAT) CanBeZero() (bool, bool) {
	_, res, ok := e.query("zero", classValidity, func(c *bitblast.Circuit, b *bitblast.Blasted) sat.Lit {
		return c.OrN(b.Output...).Not()
	})
	return res, ok
}

func (e freshSAT) CanBeNonPowerOfTwo() (bool, bool) {
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

func (e freshSAT) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
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

// BitMatters blasts two copies of the function onto one fresh solver,
// the second reading bit `bit` of v flipped, and asks whether both are
// well-defined with different outputs.
func (e freshSAT) BitMatters(v *ir.Inst, bit uint) (bool, bool) {
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
