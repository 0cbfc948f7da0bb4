package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// cnfRecorder records an instance so it can be loaded into several
// solvers in the same order.
type cnfRecorder struct {
	vars    int
	clauses [][]Lit
}

func (r *cnfRecorder) NewVar() Var {
	r.vars++
	return Var(r.vars - 1)
}

func (r *cnfRecorder) AddClause(lits ...Lit) bool {
	r.clauses = append(r.clauses, append([]Lit(nil), lits...))
	return true
}

func randLit(rng *rand.Rand, n int) Lit {
	v := Var(rng.Intn(n))
	if rng.Intn(2) == 0 {
		return PosLit(v)
	}
	return NegLit(v)
}

// addRandom3SAT adds m random 3-clauses over n fresh variables.
func addRandom3SAT(s cnfBuilder, rng *rand.Rand, n, m int) {
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i < m; i++ {
		s.AddClause(randLit(rng, n), randLit(rng, n), randLit(rng, n))
	}
}

// addRandomCircuit Tseitin-encodes a random circuit of AND and XOR gates
// with randomly negated fan-ins over inputs fresh inputs, then forces a
// few gate outputs to random values.
func addRandomCircuit(s cnfBuilder, rng *rand.Rand, inputs, gates int) {
	sig := make([]Lit, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		sig = append(sig, PosLit(s.NewVar()))
	}
	for g := 0; g < gates; g++ {
		a, b := sig[rng.Intn(len(sig))], sig[rng.Intn(len(sig))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		o := PosLit(s.NewVar())
		if rng.Intn(2) == 0 { // o = a AND b
			s.AddClause(o.Not(), a)
			s.AddClause(o.Not(), b)
			s.AddClause(o, a.Not(), b.Not())
		} else { // o = a XOR b
			s.AddClause(o.Not(), a, b)
			s.AddClause(o.Not(), a.Not(), b.Not())
			s.AddClause(o, a.Not(), b)
			s.AddClause(o, a, b.Not())
		}
		sig = append(sig, o)
	}
	for k := 0; k < 3; k++ {
		o := sig[inputs+rng.Intn(gates)]
		if rng.Intn(2) == 0 {
			o = o.Not()
		}
		s.AddClause(o)
	}
}

// addTwoParityChains constrains the same n inputs twice, in two orders,
// to the given parities: unsatisfiable when they differ, and hard for
// resolution either way.
func addTwoParityChains(s cnfBuilder, rng *rand.Rand, n int, p1, p2 bool) {
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	addXorChain(s, vars, p1)
	shuffled := append([]Var(nil), vars...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	addXorChain(s, shuffled, p2)
}

// solverPair drives the arena solver and the reference kernel in lock
// step and fails the test at the first call where they differ.
type solverPair struct {
	t     *testing.T
	name  string
	arena *Solver
	ref   *sliceSolver
	calls int

	reductions, compactions int
	varRescales             int // calls in which variable activities were rescaled
}

func newSolverPair(t *testing.T, name string, inst *cnfRecorder, maxLearn int) *solverPair {
	p := &solverPair{t: t, name: name, arena: New(), ref: newSliceSolver()}
	p.arena.maxLearn, p.ref.maxLearn = maxLearn, maxLearn
	p.arena.onReduce = func(compacted bool) {
		p.reductions++
		if compacted {
			p.compactions++
		}
	}
	for i := 0; i < inst.vars; i++ {
		p.arena.NewVar()
		p.ref.NewVar()
	}
	for _, c := range inst.clauses {
		p.addClause(c...)
	}
	return p
}

func (p *solverPair) addClause(lits ...Lit) {
	if a, r := p.arena.AddClause(lits...), p.ref.AddClause(lits...); a != r {
		p.t.Fatalf("%s: AddClause(%v) = %v, reference %v", p.name, lits, a, r)
	}
}

// pileUpTie runs up to 300 conflicts with reduction off, gives every
// learnt clause the same activity and sets the learnt limit to maxLearn:
// the next reduction cuts through the tie, so which clauses it keeps
// depends on the order of learnts that sort.Slice starts from.
func (p *solverPair) pileUpTie(maxLearn int) {
	p.arena.maxLearn, p.ref.maxLearn = 1<<30, 1<<30
	p.solve(p.arena.Conflicts + 300)
	for _, c := range p.arena.learnts {
		p.arena.setClauseAct(c, 0)
	}
	for c := range p.ref.claAct {
		p.ref.claAct[c] = 0
	}
	p.arena.maxLearn, p.ref.maxLearn = maxLearn, maxLearn
}

// solve runs one call on both solvers with the same absolute conflict
// budget and compares status, model and counters.
func (p *solverPair) solve(budget int64, assumptions ...Lit) Status {
	p.t.Helper()
	p.calls++
	p.arena.ConflictBudget, p.ref.ConflictBudget = budget, budget
	varInc := p.arena.varInc
	got, want := p.arena.Solve(assumptions...), p.ref.Solve(assumptions...)
	if p.arena.varInc < varInc { // it only grows between rescales
		p.varRescales++
	}
	where := fmt.Sprintf("%s call %d (assumptions %v, budget %d)", p.name, p.calls, assumptions, budget)
	if got != want {
		p.t.Fatalf("%s: status %v, reference %v", where, got, want)
	}
	if gs, ws := p.arena.Stats(), p.ref.Stats(); gs != ws {
		p.t.Fatalf("%s: stats %+v, reference %+v", where, gs, ws)
	}
	if got == Sat {
		for v := 0; v < p.arena.NumVars(); v++ {
			if p.arena.Value(Var(v)) != p.ref.Value(Var(v)) {
				p.t.Fatalf("%s: model differs from the reference at x%d", where, v)
			}
		}
	}
	return got
}

// TestArenaMatchesReference runs the arena solver and the clause-slice
// kernel it replaced side by side on random 3-SAT near the threshold,
// PHP(5..7), parity chains and random AND/XOR circuits: a sequence of
// assumption solves per instance, some cut off by a small conflict
// budget and then resumed, with clauses added in between, a learnt limit
// small enough that reduction and compaction both fire, clause and
// variable activity increments large enough to force rescaling, and ties
// in activity across most learnt clauses. Every call must give the same
// status, model and counters: the arena changes where clauses live,
// never what the search does.
func TestArenaMatchesReference(t *testing.T) {
	type family struct {
		name  string
		count int
		build func(r *cnfRecorder, rng *rand.Rand, i int)
	}
	families := []family{
		{"3sat", 12, func(r *cnfRecorder, rng *rand.Rand, i int) {
			n := 40 + 10*(i%4)
			addRandom3SAT(r, rng, n, n*426/100)
		}},
		{"php", 3, func(r *cnfRecorder, rng *rand.Rand, i int) {
			addPigeonhole(r, i+6, i+5)
		}},
		{"parity", 6, func(r *cnfRecorder, rng *rand.Rand, i int) {
			n := 10 + 2*i
			addTwoParityChains(r, rng, n, true, i%2 == 0)
		}},
		{"circuit", 10, func(r *cnfRecorder, rng *rand.Rand, i int) {
			addRandomCircuit(r, rng, 12+i, 60+10*i)
		}},
	}
	rng := rand.New(rand.NewSource(2020))
	total, reductions, compactions, varRescales := 0, 0, 0, 0
	statuses := map[Status]int{}
	for _, f := range families {
		for i := 0; i < f.count; i++ {
			inst := &cnfRecorder{}
			f.build(inst, rng, i)
			maxLearn := 4 + rng.Intn(12)
			p := newSolverPair(t, fmt.Sprintf("%s/%d", f.name, i), inst, maxLearn)
			for call := 0; call < 8; call++ {
				if call%4 == 0 {
					p.pileUpTie(maxLearn)
				}
				var asm []Lit
				for k := rng.Intn(4); k > 0; k-- {
					asm = append(asm, randLit(rng, inst.vars))
				}
				if rng.Intn(6) == 0 {
					// A huge activity increment makes the next bumps
					// rescale every learnt clause's activity by 1e-20
					// over and over.
					p.arena.claInc, p.ref.claInc = 1e250, 1e250
				}
				if rng.Intn(6) == 0 {
					// Likewise a variable increment near 1e100 makes
					// the next bumps rescale every variable's activity,
					// and the heap's order with it, by 1e-100.
					p.arena.varInc, p.ref.varInc = 1e99, 1e99
				}
				if rng.Intn(3) == 0 {
					// Cut the solve off, then resume it.
					st := p.solve(p.arena.Conflicts+int64(5+rng.Intn(40)), asm...)
					statuses[st]++
					if st != Unknown {
						continue
					}
				}
				statuses[p.solve(0, asm...)]++
				if rng.Intn(4) == 0 {
					p.addClause(randLit(rng, inst.vars), randLit(rng, inst.vars), randLit(rng, inst.vars))
				}
			}
			total += p.calls
			reductions += p.reductions
			compactions += p.compactions
			varRescales += p.varRescales
		}
	}
	t.Logf("%d calls (%d sat, %d unsat, %d unknown), %d reductions, %d compactions, %d calls rescaling variable activities",
		total, statuses[Sat], statuses[Unsat], statuses[Unknown], reductions, compactions, varRescales)
	if statuses[Sat] == 0 || statuses[Unsat] == 0 || statuses[Unknown] == 0 {
		t.Errorf("want sat, unsat and cut-off calls, got %v", statuses)
	}
	if reductions == 0 || compactions == 0 || varRescales == 0 {
		t.Errorf("%d reductions, %d compactions, %d variable rescales: all must fire", reductions, compactions, varRescales)
	}
}

// TestCompactionKeepsArenaDense checks the arena bookkeeping on PHP(7)
// with a learnt limit of 30: after every reduction the live clauses fill
// at least half the arena, the wasted-word count matches a walk of the
// arena, and once compaction has run, an assumption solve still matches
// the reference kernel call for call.
func TestCompactionKeepsArenaDense(t *testing.T) {
	inst := &cnfRecorder{}
	addPigeonhole(inst, 8, 7)
	p := newSolverPair(t, "php7", inst, 30)
	s := p.arena
	checked := 0
	s.onReduce = func(compacted bool) {
		p.reductions++
		if compacted {
			p.compactions++
		}
		live, dead := 0, 0
		for c := 0; c < len(s.arena); {
			hdr := uint32(s.arena[c])
			n := clauseWords(hdr)
			if hdr&hdrDeleted != 0 {
				dead += n
			} else {
				live += n
			}
			c += n
		}
		if dead != s.wasted {
			t.Fatalf("reduction %d: %d dead words in the arena, wasted says %d", p.reductions, dead, s.wasted)
		}
		if 2*live < len(s.arena) {
			t.Fatalf("reduction %d: %d live words of %d", p.reductions, live, len(s.arena))
		}
		for _, c := range s.learnts {
			if !s.isLearnt(c) || s.arena[c]&hdrDeleted != 0 {
				t.Fatalf("reduction %d: learnts holds %d, header %#x", p.reductions, c, uint32(s.arena[c]))
			}
		}
		checked++
	}
	// Solve until compaction has run, but stop short of refuting the
	// formula outright, which would answer every later call at once.
	for p.compactions == 0 {
		if st := p.solve(s.Conflicts+500, PosLit(0)); st == Unsat {
			t.Fatalf("PHP(7) refuted before any compaction (%d reductions)", p.reductions)
		}
	}
	x := func(pigeon, hole int) Var { return Var(pigeon*7 + hole) }
	if st := p.solve(0, PosLit(x(1, 2)), PosLit(x(3, 4))); st != Unsat {
		t.Fatalf("PHP(7) under assumptions = %v, want unsat", st)
	}
	if st := p.solve(0); st != Unsat {
		t.Fatalf("PHP(7) = %v, want unsat", st)
	}
	if checked == 0 || p.compactions == 0 {
		t.Fatalf("%d reductions checked, %d compactions", checked, p.compactions)
	}
}

// TestCompactPreservesOrder deletes every other learnt clause of a
// half-solved PHP(6) by hand, then compacts: every learnt, watcher and
// reason must still name the same clause, with the same literals,
// activity and position in its list, and the arena must hold exactly
// the live clauses in their old order.
func TestCompactPreservesOrder(t *testing.T) {
	s := New()
	s.maxLearn = 1 << 30
	addPigeonhole(s, 7, 6)
	s.ConflictBudget = 400
	if st := s.Solve(); st != Unknown {
		t.Fatalf("PHP(6) with 400 conflicts = %v, want unknown", st)
	}
	// A problem clause placed after the learnt ones, and units that make
	// it and others propagate, so level-0 reasons point past deleted
	// clauses.
	x := func(pigeon, hole int) Lit { return PosLit(Var(pigeon*6 + hole)) }
	s.AddClause(x(1, 1).Not(), x(2, 2).Not(), x(3, 3).Not())
	s.AddClause(x(1, 1))
	s.AddClause(x(2, 2))
	locked := map[clauseRef]bool{}
	for _, r := range s.reason {
		locked[r] = true
	}
	live := s.learnts[:0]
	for i, c := range s.learnts {
		if i%2 == 0 && !locked[c] && len(s.lits(c)) > 2 {
			s.arena[c] |= hdrDeleted
			s.wasted += clauseWords(uint32(s.arena[c]))
			continue
		}
		live = append(live, c)
	}
	s.learnts = live
	s.dropDeletedWatchers()

	type clause struct {
		lits   string
		learnt bool
		act    float64
	}
	describe := func(c clauseRef) clause {
		cl := clause{lits: fmt.Sprint(s.lits(c)), learnt: s.isLearnt(c)}
		if cl.learnt {
			cl.act = s.clauseAct(c)
		}
		return cl
	}
	snapshot := func() (order, learnts, watches, reasons []clause) {
		for c := 0; c < len(s.arena); c += clauseWords(uint32(s.arena[c])) {
			if s.arena[c]&hdrDeleted == 0 {
				order = append(order, describe(clauseRef(c)))
			}
		}
		for _, c := range s.learnts {
			learnts = append(learnts, describe(c))
		}
		for _, ws := range s.watches {
			for _, w := range ws {
				watches = append(watches, describe(w.ref()), clause{lits: w.blocker.String()})
			}
		}
		for _, r := range s.reason {
			if r != nilReason {
				reasons = append(reasons, describe(r))
			}
		}
		return
	}
	o1, l1, w1, r1 := snapshot()
	if len(l1) == 0 || len(r1) == 0 || s.wasted == 0 {
		t.Fatalf("nothing to remap: %d learnts, %d reasons, %d dead words", len(l1), len(r1), s.wasted)
	}
	liveWords := len(s.arena) - s.wasted
	s.compact()
	if len(s.arena) != liveWords || s.wasted != 0 {
		t.Fatalf("compacted arena has %d words (wasted %d), want %d live words", len(s.arena), s.wasted, liveWords)
	}
	o2, l2, w2, r2 := snapshot()
	for _, cmp := range []struct {
		what       string
		got, wants []clause
	}{{"arena order", o2, o1}, {"learnts", l2, l1}, {"watchers", w2, w1}, {"reasons", r2, r1}} {
		if fmt.Sprint(cmp.got) != fmt.Sprint(cmp.wants) {
			t.Errorf("%s changed by compaction", cmp.what)
		}
	}
	s.ConflictBudget = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(6) after compaction = %v, want unsat", st)
	}
}
