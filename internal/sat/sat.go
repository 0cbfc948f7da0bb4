// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, first
// unique implication point learning, VSIDS branching with phase saving,
// and Luby restarts. Together with the bitblast package it forms the
// QF_BV decision procedure standing in for the paper's use of Z3.
//
// Budgets stand in for the paper's 30-second solver timeouts: a solve that
// exceeds its conflict or propagation budget returns Unknown, which the
// oracle reports as resource exhaustion (Table 1's fourth column).
package sat

import (
	"fmt"
	"sort"
)

// Var is a propositional variable index (0-based).
type Var int32

// Lit is a literal: variable with polarity. The encoding is 2*v for the
// positive literal and 2*v+1 for the negation.
type Lit int32

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// Not negates the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Status is a solve outcome.
type Status int8

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

type clauseRef int32

const nilReason clauseRef = -1

type watcher struct {
	cref    clauseRef
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses  [][]Lit // clause database (problem + learnt)
	deleted  []bool  // tombstones for reduced learnt clauses
	learnts  []clauseRef
	claAct   map[clauseRef]float64
	claInc   float64
	maxLearn int
	watches  [][]watcher
	assigns  []lbool
	phase    []bool // saved phases
	level    []int32
	reason   []clauseRef
	activity []float64
	varInc   float64
	heap     varHeap
	trail    []Lit
	trailLim []int
	qhead    int
	seen     []bool
	litSlab  []Lit // bump allocator backing problem-clause literal slices

	unsat bool   // a conflict at level 0 was derived
	model []bool // snapshot of the last satisfying assignment

	// Budgets; zero or negative means unlimited.
	ConflictBudget    int64
	PropagationBudget int64

	// Abort, when non-nil, is polled during search every AbortCheckEvery
	// propagations; a true return stops the solve with Unknown. Unlike the
	// budgets — which are checked only between restarts' conflict batches —
	// the abort poll bounds how far a single solve can overrun an external
	// deadline: at most one check interval of propagation work. The
	// callback must be cheap (it is called from the search hot loop) and
	// must keep returning true once it has fired.
	Abort func() bool

	// AbortCheckEvery is the abort poll interval in propagations;
	// zero or negative selects DefaultAbortCheckEvery.
	AbortCheckEvery int64

	nextAbortCheck int64
	aborted        bool

	// Statistics.
	Conflicts    int64
	Propagations int64
	Decisions    int64
	Restarts     int64

	learned      int64 // learnt clauses attached (units included)
	addedClauses int64 // problem clauses accepted by AddClause
}

// Stats is a point-in-time snapshot of the solver's cumulative search
// counters and problem size — the per-query internals the trace layer
// attaches to leaf spans so solver effort stays attributable (the
// Souper-style per-query cost accounting).
type Stats struct {
	Decisions    int64 `json:"decisions"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"` // learnt clauses derived (units included)
	Vars         int64 `json:"vars"`    // variables allocated
	Clauses      int64 `json:"clauses"` // problem clauses accepted
}

// Stats snapshots the solver's counters. Cheap enough to call around
// every query.
func (s *Solver) Stats() Stats {
	return Stats{
		Decisions:    s.Decisions,
		Conflicts:    s.Conflicts,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
		Learned:      s.learned,
		Vars:         int64(len(s.assigns)),
		Clauses:      s.addedClauses,
	}
}

// Sub returns the counter deltas a - b, for attributing one query's work
// on a shared incremental solver (sizes subtract too: the delta's Vars and
// Clauses are what the query added).
func (a Stats) Sub(b Stats) Stats {
	return Stats{
		Decisions:    a.Decisions - b.Decisions,
		Conflicts:    a.Conflicts - b.Conflicts,
		Propagations: a.Propagations - b.Propagations,
		Restarts:     a.Restarts - b.Restarts,
		Learned:      a.Learned - b.Learned,
		Vars:         a.Vars - b.Vars,
		Clauses:      a.Clauses - b.Clauses,
	}
}

// DefaultAbortCheckEvery is the default abort poll interval. Propagation
// runs at tens of millions per second, so polling every few thousand
// keeps the callback overhead unmeasurable while bounding deadline
// overshoot to well under a millisecond of search work.
const DefaultAbortCheckEvery = 4096

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		varInc:   1.0,
		claInc:   1.0,
		claAct:   make(map[clauseRef]float64),
		maxLearn: 4000,
	}
}

// NewVar adds a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilReason)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.heap.push(v, s.activity)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses accepted by AddClause
// (after level-0 simplification; learnt clauses are not counted). It is
// the CNF-size figure the bit-blaster's Circuit.Stats reports.
func (s *Solver) NumClauses() int64 { return s.addedClauses }

func (s *Solver) litValue(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.IsNeg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause. Returns false if the formula became trivially
// unsatisfiable. Must be called before Solve (no incremental clause adding
// mid-search, but adding between Solve calls is fine at level 0).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause during search")
	}
	// Simplify: drop duplicate/false literals; detect tautology and
	// satisfied clauses. The scratch buffer keeps typical clauses off the
	// heap; the survivors are copied into the slab only once attached.
	var buf [16]Lit
	out := buf[:0]
	if len(lits) > len(buf) {
		out = make([]Lit, 0, len(lits))
	}
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
			}
			if o == l.Not() {
				taut = true
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nilReason) {
			s.unsat = true
			return false
		}
		if s.propagate() != nilClauseIdx {
			s.unsat = true
			return false
		}
		s.addedClauses++
		return true
	}
	s.attachClause(s.allocLits(out))
	s.addedClauses++
	return true
}

// litSlabSize is the chunk size of the clause-literal bump allocator.
// Problem clauses are never freed individually (reduceDB only tombstones
// learnts), so carving them out of shared slabs is safe and turns the
// dominant alloc-per-clause pattern into one allocation per ~4096
// literals. In-place writes to lits[0]/lits[1] during propagation stay
// confined to each clause's own region.
const litSlabSize = 4096

func (s *Solver) allocLits(lits []Lit) []Lit {
	n := len(lits)
	if n > litSlabSize/4 {
		return append([]Lit(nil), lits...)
	}
	if cap(s.litSlab)-len(s.litSlab) < n {
		s.litSlab = make([]Lit, 0, litSlabSize)
	}
	off := len(s.litSlab)
	s.litSlab = s.litSlab[: off+n : cap(s.litSlab)]
	out := s.litSlab[off : off+n : off+n]
	copy(out, lits)
	return out
}

const nilClauseIdx = clauseRef(-1)

func (s *Solver) attachClause(lits []Lit) clauseRef {
	cref := clauseRef(len(s.clauses))
	s.clauses = append(s.clauses, lits)
	s.deleted = append(s.deleted, false)
	s.watchClause(lits[0].Not(), watcher{cref, lits[1]})
	s.watchClause(lits[1].Not(), watcher{cref, lits[0]})
	return cref
}

// watchClause appends to a watcher list, giving fresh lists a capacity of
// four up front: nearly every literal watches at least a couple of
// clauses, and the default 1→2→4 growth sequence was a fifth of all
// allocation in clause-construction-heavy workloads.
func (s *Solver) watchClause(l Lit, w watcher) {
	if ws := s.watches[l]; ws == nil {
		s.watches[l] = append(make([]watcher, 0, 4), w)
	} else {
		s.watches[l] = append(ws, w)
	}
}

func (s *Solver) attachLearnt(lits []Lit) clauseRef {
	cref := s.attachClause(lits)
	s.learnts = append(s.learnts, cref)
	s.claAct[cref] = s.claInc
	s.learned++
	return cref
}

func (s *Solver) bumpClause(cref clauseRef) {
	if _, ok := s.claAct[cref]; !ok {
		return // problem clause
	}
	s.claAct[cref] += s.claInc
	if s.claAct[cref] > 1e20 {
		for k := range s.claAct {
			s.claAct[k] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// reduceDB tombstones the lower-activity half of the learnt clauses. It
// runs at decision level 0, so the only reason-locked clauses are those
// backing level-0 implied units.
func (s *Solver) reduceDB() {
	if s.decisionLevel() != 0 {
		return
	}
	locked := make(map[clauseRef]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nilReason {
			locked[r] = true
		}
	}
	// Sort learnt refs by activity, ascending (insertion sort would be
	// quadratic; use the stdlib).
	live := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.deleted[c] {
			live = append(live, c)
		}
	}
	s.learnts = live
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.claAct[s.learnts[i]] < s.claAct[s.learnts[j]]
	})
	target := len(s.learnts) / 2
	removed := 0
	for _, c := range s.learnts {
		if removed >= target {
			break
		}
		if locked[c] || len(s.clauses[c]) <= 2 {
			continue
		}
		s.deleted[c] = true
		delete(s.claAct, c)
		s.clauses[c] = nil // release memory; watchers are pruned lazily
		removed++
	}
	live = s.learnts[:0]
	for _, c := range s.learnts {
		if !s.deleted[c] {
			live = append(live, c)
		}
	}
	s.learnts = live
	s.maxLearn += s.maxLearn / 10
}

func (s *Solver) enqueue(l Lit, from clauseRef) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.IsNeg())
	s.phase[v] = !l.IsNeg()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the conflicting clause or
// nilClauseIdx.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var conflict clauseRef = nilClauseIdx
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.deleted[w.cref] {
				continue // lazily drop watchers of reduced clauses
			}
			if s.litValue(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			lits := s.clauses[w.cref]
			// Ensure the falsified literal is at position 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, watcher{w.cref, first})
			if s.litValue(first) == lFalse {
				conflict = w.cref
				s.qhead = len(s.trail)
				// Keep the remaining watchers.
				kept = append(kept, ws[i+1:]...)
				break
			}
			s.enqueue(first, w.cref)
		}
		s.watches[p] = kept
		if conflict != nilClauseIdx {
			return conflict
		}
	}
	return nilClauseIdx
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reason[v] = nilReason
		s.heap.pushIfAbsent(v, s.activity)
	}
	s.qhead = s.trailLim[lvl]
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

const varDecay = 1.0 / 0.95

// analyze performs 1UIP conflict analysis. Returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		lits := s.clauses[confl]
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail that is marked.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
		if confl == nilReason {
			panic("sat: missing reason during conflict analysis")
		}
		// Reorder reason so p is first (by construction the asserting
		// literal of a reason clause is the enqueued one).
		rlits := s.clauses[confl]
		if rlits[0] != p {
			for k := 1; k < len(rlits); k++ {
				if rlits[k] == p {
					rlits[0], rlits[k] = rlits[k], rlits[0]
					break
				}
			}
		}
	}

	// Clause minimization (local self-subsumption): a literal whose
	// entire reason is already among the collected literals (or fixed at
	// level 0) is implied by the rest and can be dropped. The seen marks
	// of dropped literals stay in place during the pass — redundancy is
	// judged against the originally collected set, which is sound by
	// induction — and are cleared afterwards.
	kept := 1
	var dropped []Var
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		redundant := false
		if r := s.reason[v]; r != nilReason {
			redundant = true
			for _, q := range s.clauses[r][1:] {
				if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			learnt[kept] = learnt[i]
			kept++
		} else {
			dropped = append(dropped, v)
		}
	}
	learnt = learnt[:kept]
	for _, v := range dropped {
		s.seen[v] = false
	}

	// Backtrack level: highest level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

// pickBranchLit selects the unassigned variable with highest activity,
// using its saved phase.
func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.heap.popMax(s.activity)
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			s.Decisions++
			if s.phase[v] {
				return PosLit(v)
			}
			return NegLit(v)
		}
	}
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i+1 == 1<<uint(k)-1 {
			return 1 << uint(k-1)
		}
		if i+1 >= 1<<uint(k) {
			continue
		}
		return luby(i - (1<<uint(k-1) - 1))
	}
}

// restartBase scales the Luby restart sequence, in conflicts.
const restartBase = 100

// Solve determines satisfiability under the given assumptions. After Sat,
// Value reports the model. Unknown means a budget was exhausted or the
// Abort callback fired. It runs the restart loop: CDCL search up to the
// next Luby limit, then back to level 0 to reduce the learnt clauses.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	defer s.cancelUntil(0)
	s.aborted = false
	s.nextAbortCheck = s.Propagations // poll before the first batch

	var restartNum int64
	for {
		limit := s.Conflicts + restartBase*luby(restartNum)
		st := s.search(assumptions, limit)
		if st == Sat {
			s.model = s.modelSnapshot()
			return Sat
		}
		if st == Unsat {
			return Unsat
		}
		if s.aborted || s.budgetExceeded() {
			return Unknown
		}
		restartNum++
		s.Restarts++
		s.cancelUntil(0)
		if len(s.learnts) > s.maxLearn {
			s.reduceDB()
		}
	}
}

func (s *Solver) budgetExceeded() bool {
	return (s.ConflictBudget > 0 && s.Conflicts >= s.ConflictBudget) ||
		(s.PropagationBudget > 0 && s.Propagations >= s.PropagationBudget)
}

// pollAbort invokes the Abort callback once enough propagations have
// accumulated since the last poll, reporting true when the solve must
// stop. Every search iteration runs at least one propagation, so the poll
// comes due regardless of how the search is progressing.
func (s *Solver) pollAbort() bool {
	if s.Abort == nil || s.Propagations < s.nextAbortCheck {
		return false
	}
	every := s.AbortCheckEvery
	if every <= 0 {
		every = DefaultAbortCheckEvery
	}
	s.nextAbortCheck = s.Propagations + every
	if s.Abort() {
		s.aborted = true
		return true
	}
	return false
}

// search runs CDCL until a result, a restart point, budget exhaustion, or
// an abort.
func (s *Solver) search(assumptions []Lit, conflictLimit int64) Status {
	for {
		if s.pollAbort() {
			return Unknown
		}
		confl := s.propagate()
		if confl != nilClauseIdx {
			s.Conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			// Never backtrack past the assumptions: if the learnt
			// clause asserts below the assumption levels, the
			// assumptions themselves are contradictory.
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.learned++ // a learnt unit never enters the clause DB
				if !s.enqueue(learnt[0], nilReason) {
					s.unsat = true
					return Unsat
				}
			} else {
				cref := s.attachLearnt(learnt)
				s.enqueue(learnt[0], cref)
			}
			s.varInc *= varDecay
			s.claInc *= 1.0 / 0.999
			if s.Conflicts >= conflictLimit || s.budgetExceeded() {
				return Unknown
			}
			continue
		}

		// Place assumptions as pseudo-decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				s.newDecisionLevel() // already satisfied; dummy level
				continue
			case lFalse:
				return Unsat // conflicts with forced values
			}
			s.newDecisionLevel()
			s.enqueue(a, nilReason)
			continue
		}

		l := s.pickBranchLit()
		if l == -1 {
			return Sat // all variables assigned
		}
		s.newDecisionLevel()
		s.enqueue(l, nilReason)
	}
}

// Value reports the model value of v after a Sat result.
func (s *Solver) Value(v Var) bool {
	if s.model == nil {
		panic("sat: Value called without a satisfying model")
	}
	return s.model[v]
}

// modelSnapshot copies the satisfying assignment before Solve's deferred
// backtrack erases it.
func (s *Solver) modelSnapshot() []bool {
	m := make([]bool, len(s.assigns))
	for i := range s.assigns {
		m[i] = s.assigns[i] == lTrue
	}
	return m
}
