// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, first
// unique implication point learning, VSIDS branching with phase saving,
// and Luby restarts. Together with the bitblast package it forms the
// QF_BV decision procedure standing in for the paper's use of Z3.
//
// Budgets stand in for the paper's 30-second solver timeouts: a solve that
// exceeds its conflict budget returns Unknown, which the oracle reports as
// resource exhaustion (Table 1's fourth column).
//
// Clauses live in one flat arena (see clauseRef), so propagation walks
// watcher lists and clause bodies without chasing a slice header per
// clause or testing a tombstone per watcher.
package sat

import (
	"fmt"
	"math"
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

// clauseRef is a clause's offset in the solver's arena. A clause at
// offset c occupies
//
//	arena[c]                      header: size<<hdrSizeShift | hdrLearnt | hdrDeleted
//	arena[c+1 : c+1+size]         its literals, the two watched ones first
//	arena[c+1+size : c+3+size]    learnt clauses only: the float64 activity,
//	                              low word first
//
// so a clause's literals always start one word past its reference and a
// forward walk finds every clause from its header alone.
type clauseRef int32

const nilReason clauseRef = -1

// Clause header flags and the size field's position.
const (
	hdrDeleted   = 1 << 0
	hdrLearnt    = 1 << 1
	hdrSizeShift = 2
)

// clauseWords is the arena footprint of a clause with header hdr.
func clauseWords(hdr uint32) int {
	n := 1 + int(hdr>>hdrSizeShift)
	if hdr&hdrLearnt != 0 {
		n += 2
	}
	return n
}

type watcher struct {
	cref    clauseRef
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena      []Lit // clause database (problem + learnt); see clauseRef
	wasted     int   // arena words held by deleted clauses
	learnts    []clauseRef
	claInc     float64
	maxLearn   int
	watches    [][]watcher
	vals       []lbool // vals[l] is the value of literal l
	phase      []bool  // saved phases
	level      []int32
	reason     []clauseRef
	activity   []float64
	varInc     float64
	heap       varHeap
	trail      []Lit
	trailLim   []int
	qhead      int
	seen       []bool
	learntBuf  []Lit // analyze's learnt-clause buffer
	droppedBuf []Var // analyze's minimization buffer

	unsat bool   // a conflict at level 0 was derived
	model []bool // snapshot of the last satisfying assignment

	// ConflictBudget bounds the solver's cumulative conflict count; a
	// solve returns Unknown once it is reached. Zero or negative means
	// unlimited.
	ConflictBudget int64

	// Abort, when non-nil, is polled during search every
	// DefaultAbortCheckEvery propagations; a true return stops the solve
	// with Unknown. Unlike the budget — which is checked only after a
	// conflict — the abort poll bounds how far a single solve can overrun
	// an external deadline: at most one check interval of propagation
	// work. The callback must be cheap (it is called from the search hot
	// loop) and must keep returning true once it has fired.
	Abort func() bool

	nextAbortCheck int64
	aborted        bool

	// onReduce, when set, runs at the end of every clause-database
	// reduction, told whether the arena was compacted; tests use it to
	// inspect the arena.
	onReduce func(compacted bool)

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
		Vars:         int64(s.NumVars()),
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

// DefaultAbortCheckEvery is the abort poll interval in propagations.
// Propagation runs at tens of millions per second, so polling every few
// thousand keeps the callback overhead unmeasurable while bounding
// deadline overshoot to well under a millisecond of search work.
const DefaultAbortCheckEvery = 4096

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		varInc:   1.0,
		claInc:   1.0,
		maxLearn: 4000,
	}
}

// NewVar adds a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(s.vals, lUndef, lUndef)
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
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses accepted by AddClause
// (after level-0 simplification; learnt clauses are not counted). It is
// the CNF-size figure the bit-blaster's Circuit.Stats reports.
func (s *Solver) NumClauses() int64 { return s.addedClauses }

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
	// heap; the survivors are copied into the arena only once attached.
	var buf [16]Lit
	out := buf[:0]
	if len(lits) > len(buf) {
		out = make([]Lit, 0, len(lits))
	}
	for _, l := range lits {
		switch s.vals[l] {
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
	s.attachClause(out, false)
	s.addedClauses++
	return true
}

const nilClauseIdx = clauseRef(-1)

// lits returns the literals of clause c, aliasing the arena.
func (s *Solver) lits(c clauseRef) []Lit {
	n := int(uint32(s.arena[c]) >> hdrSizeShift)
	return s.arena[int(c)+1 : int(c)+1+n]
}

func (s *Solver) isLearnt(c clauseRef) bool { return s.arena[c]&hdrLearnt != 0 }

// clauseAct and setClauseAct access a learnt clause's activity, stored
// inline after its literals.
func (s *Solver) clauseAct(c clauseRef) float64 {
	i := int(c) + 1 + int(uint32(s.arena[c])>>hdrSizeShift)
	return math.Float64frombits(uint64(uint32(s.arena[i])) | uint64(uint32(s.arena[i+1]))<<32)
}

func (s *Solver) setClauseAct(c clauseRef, a float64) {
	i := int(c) + 1 + int(uint32(s.arena[c])>>hdrSizeShift)
	b := math.Float64bits(a)
	s.arena[i], s.arena[i+1] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// attachClause appends a clause to the arena and watches its first two
// literals.
func (s *Solver) attachClause(lits []Lit, learnt bool) clauseRef {
	c := len(s.arena)
	hdr := uint32(len(lits)) << hdrSizeShift
	if learnt {
		hdr |= hdrLearnt
	}
	s.arena = append(s.arena, Lit(hdr))
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0) // activity, set by attachLearnt
	}
	cref := clauseRef(c)
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
	cref := s.attachClause(lits, true)
	s.learnts = append(s.learnts, cref)
	s.setClauseAct(cref, s.claInc)
	s.learned++
	return cref
}

func (s *Solver) bumpClause(cref clauseRef) {
	if !s.isLearnt(cref) {
		return // problem clause
	}
	a := s.clauseAct(cref) + s.claInc
	s.setClauseAct(cref, a)
	if a > 1e20 {
		for _, c := range s.learnts {
			s.setClauseAct(c, s.clauseAct(c)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// reduceDB deletes the lower-activity half of the learnt clauses. It runs
// at decision level 0, so the only reason-locked clauses are those
// backing level-0 implied units. The deleted clauses' watchers go at
// once, so propagation never meets a dead clause, and once dead clauses
// hold more than half the arena it is compacted.
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
	// Sort learnt refs by activity, ascending. sort.Slice is not stable:
	// the order it leaves ties in is part of the search, so the input
	// order (attach order after the previous reduction's survivors) must
	// not change either.
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.clauseAct(s.learnts[i]) < s.clauseAct(s.learnts[j])
	})
	target := len(s.learnts) / 2
	removed := 0
	for _, c := range s.learnts {
		if removed >= target {
			break
		}
		if locked[c] || len(s.lits(c)) <= 2 {
			continue
		}
		s.arena[c] |= hdrDeleted
		s.wasted += clauseWords(uint32(s.arena[c]))
		removed++
	}
	compacted := false
	if removed > 0 {
		live := s.learnts[:0]
		for _, c := range s.learnts {
			if s.arena[c]&hdrDeleted == 0 {
				live = append(live, c)
			}
		}
		s.learnts = live
		s.dropDeletedWatchers()
		if 2*s.wasted > len(s.arena) {
			s.compact()
			compacted = true
		}
	}
	s.maxLearn += s.maxLearn / 10
	if s.onReduce != nil {
		s.onReduce(compacted)
	}
}

// dropDeletedWatchers removes the watchers of deleted clauses, keeping
// the order of the rest: watcher order decides which clause propagates
// first, so it is part of the search.
func (s *Solver) dropDeletedWatchers() {
	for l, ws := range s.watches {
		j := 0
		for _, w := range ws {
			if s.arena[w.cref]&hdrDeleted == 0 {
				ws[j] = w
				j++
			}
		}
		s.watches[l] = ws[:j]
	}
}

// compact copies the live clauses into a fresh arena in their old order
// and remaps every reference to them: watchers, reasons and learnts. It
// runs at level 0 after dropDeletedWatchers, so no watcher or reason
// refers to a deleted clause. The old arena's headers carry the
// forwarding offsets while the references are rewritten.
func (s *Solver) compact() {
	old := s.arena
	arena := make([]Lit, 0, len(old)-s.wasted)
	for c := 0; c < len(old); {
		hdr := uint32(old[c])
		n := clauseWords(hdr)
		if hdr&hdrDeleted == 0 {
			nc := len(arena)
			arena = append(arena, old[c:c+n]...)
			old[c] = Lit(nc)
		}
		c += n
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].cref = clauseRef(old[ws[i].cref])
		}
	}
	for v, r := range s.reason {
		if r != nilReason {
			s.reason[v] = clauseRef(old[r])
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = clauseRef(old[c])
	}
	s.arena = arena
	s.wasted = 0
}

// assign makes l true with the given reason; l must be unassigned.
func (s *Solver) assign(l Lit, from clauseRef) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.phase[v] = !l.IsNeg()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) enqueue(l Lit, from clauseRef) bool {
	switch s.vals[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(l, from)
	return true
}

// propagate performs unit propagation; returns the conflicting clause or
// nilClauseIdx. Watcher lists are compacted in place: j trails i over the
// watchers that stay.
func (s *Solver) propagate() clauseRef {
	arena, vals := s.arena, s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		i, j := 0, 0
		conflict := nilClauseIdx
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := int(w.cref)
			// Ensure the falsified literal is at position 1.
			if arena[c+1] == falseLit {
				arena[c+1], arena[c+2] = arena[c+2], falseLit
			}
			first := arena[c+1]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Find a new literal to watch.
			end := c + 1 + int(uint32(arena[c])>>hdrSizeShift)
			found := false
			for k := c + 3; k < end; k++ {
				if l := arena[k]; vals[l] != lFalse {
					arena[c+2], arena[k] = l, arena[c+2]
					s.watches[l.Not()] = append(s.watches[l.Not()], watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if vals[first] == lFalse {
				conflict = w.cref
				s.qhead = len(s.trail)
				// Keep the remaining watchers.
				j += copy(ws[j:], ws[i:])
				break
			}
			s.assign(first, w.cref)
		}
		s.watches[p] = ws[:j]
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
		l := s.trail[i]
		v := l.Var()
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
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
// (asserting literal first) and the backtrack level. The clause aliases
// a buffer the next call reuses.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		lits := s.lits(confl)
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
		rlits := s.lits(confl)
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
	dropped := s.droppedBuf[:0]
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		redundant := false
		if r := s.reason[v]; r != nilReason {
			redundant = true
			for _, q := range s.lits(r)[1:] {
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
	s.learntBuf, s.droppedBuf = learnt, dropped

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
// using its saved phase, or returns -1 once every variable is assigned.
// Then the heap holds only assigned variables; it is emptied at once
// rather than popped one by one, which leaves it as popping would, so
// that cancelUntil rebuilds it in the same order.
func (s *Solver) pickBranchLit() Lit {
	if len(s.trail) == s.NumVars() {
		s.heap.clear()
		return -1
	}
	for {
		v, ok := s.heap.popMax(s.activity)
		if !ok {
			return -1
		}
		if s.vals[PosLit(v)] == lUndef {
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
// Value reports the model. Unknown means the conflict budget was
// exhausted or the Abort callback fired. It runs the restart loop: CDCL
// search up to the next Luby limit, then back to level 0 to reduce the
// learnt clauses.
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
			s.saveModel()
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
	return s.ConflictBudget > 0 && s.Conflicts >= s.ConflictBudget
}

// pollAbort invokes the Abort callback once enough propagations have
// accumulated since the last poll, reporting true when the solve must
// stop. Every search iteration runs at least one propagation, so the poll
// comes due regardless of how the search is progressing.
func (s *Solver) pollAbort() bool {
	if s.Abort == nil || s.Propagations < s.nextAbortCheck {
		return false
	}
	s.nextAbortCheck = s.Propagations + DefaultAbortCheckEvery
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
			switch s.vals[a] {
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

// saveModel copies the satisfying assignment into the model buffer
// before Solve's deferred backtrack erases it.
func (s *Solver) saveModel() {
	n := s.NumVars()
	if s.model == nil || cap(s.model) < n {
		s.model = make([]bool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.vals[PosLit(Var(v))] == lTrue
	}
}
