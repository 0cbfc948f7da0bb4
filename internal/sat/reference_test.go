package sat

import "sort"

// sliceSolver is the CDCL kernel the clause arena replaced, kept as a
// differential oracle: one []Lit per clause, tombstones for reduced
// learnt clauses whose watchers propagate drops lazily, clause
// activities in a map, and a per-variable assignment array. It shares
// the variable heap, the restart schedule and every search rule with
// Solver, so on any sequence of calls the two must make the same
// decisions and return the same statuses, models and counters
// (TestArenaMatchesReference).
type sliceSolver struct {
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

	unsat bool   // a conflict at level 0 was derived
	model []bool // snapshot of the last satisfying assignment

	ConflictBudget int64

	Conflicts    int64
	Propagations int64
	Decisions    int64
	Restarts     int64

	learned      int64
	addedClauses int64
}

func newSliceSolver() *sliceSolver {
	return &sliceSolver{
		varInc:   1.0,
		claInc:   1.0,
		claAct:   make(map[clauseRef]float64),
		maxLearn: 4000,
	}
}

func (s *sliceSolver) Stats() Stats {
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

func (s *sliceSolver) NewVar() Var {
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

func (s *sliceSolver) litValue(l Lit) lbool {
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

func (s *sliceSolver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause during search")
	}
	var out []Lit
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			return true
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
	s.attachClause(out)
	s.addedClauses++
	return true
}

func (s *sliceSolver) attachClause(lits []Lit) clauseRef {
	cref := clauseRef(len(s.clauses))
	s.clauses = append(s.clauses, lits)
	s.deleted = append(s.deleted, false)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{cref, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cref, lits[0]})
	return cref
}

func (s *sliceSolver) attachLearnt(lits []Lit) clauseRef {
	cref := s.attachClause(lits)
	s.learnts = append(s.learnts, cref)
	s.claAct[cref] = s.claInc
	s.learned++
	return cref
}

func (s *sliceSolver) bumpClause(cref clauseRef) {
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

func (s *sliceSolver) reduceDB() {
	if s.decisionLevel() != 0 {
		return
	}
	locked := make(map[clauseRef]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nilReason {
			locked[r] = true
		}
	}
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
		s.clauses[c] = nil // watchers are pruned lazily
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

func (s *sliceSolver) enqueue(l Lit, from clauseRef) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.IsNeg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.phase[v] = !l.IsNeg()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *sliceSolver) propagate() clauseRef {
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
			kept = append(kept, watcher{w.cref, first})
			if s.litValue(first) == lFalse {
				conflict = w.cref
				s.qhead = len(s.trail)
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

func (s *sliceSolver) decisionLevel() int { return len(s.trailLim) }

func (s *sliceSolver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *sliceSolver) cancelUntil(lvl int) {
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

func (s *sliceSolver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

func (s *sliceSolver) analyze(confl clauseRef) ([]Lit, int) {
	learnt := []Lit{0}
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		lits := s.clauses[confl]
		start := 0
		if p != -1 {
			start = 1
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

func (s *sliceSolver) pickBranchLit() Lit {
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

func (s *sliceSolver) Solve(assumptions ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	defer s.cancelUntil(0)

	var restartNum int64
	for {
		limit := s.Conflicts + restartBase*luby(restartNum)
		st := s.search(assumptions, limit)
		if st == Sat {
			s.model = make([]bool, len(s.assigns))
			for i := range s.assigns {
				s.model[i] = s.assigns[i] == lTrue
			}
			return Sat
		}
		if st == Unsat {
			return Unsat
		}
		if s.budgetExceeded() {
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

func (s *sliceSolver) budgetExceeded() bool {
	return s.ConflictBudget > 0 && s.Conflicts >= s.ConflictBudget
}

func (s *sliceSolver) search(assumptions []Lit, conflictLimit int64) Status {
	for {
		confl := s.propagate()
		if confl != nilClauseIdx {
			s.Conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.learned++
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

		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				s.newDecisionLevel()
				continue
			case lFalse:
				return Unsat
			}
			s.newDecisionLevel()
			s.enqueue(a, nilReason)
			continue
		}

		l := s.pickBranchLit()
		if l == -1 {
			return Sat
		}
		s.newDecisionLevel()
		s.enqueue(l, nilReason)
	}
}

func (s *sliceSolver) Value(v Var) bool { return s.model[v] }
