package sat

import (
	"math/rand"
	"testing"
)

// refSolve is a brute-force reference: tries all assignments.
func refSolve(numVars int, clauses [][]Lit, assumptions []Lit) bool {
	if numVars > 24 {
		panic("refSolve: too many variables")
	}
	for m := uint64(0); m < 1<<numVars; m++ {
		val := func(l Lit) bool {
			bit := m>>uint(l.Var())&1 == 1
			if l.IsNeg() {
				return !bit
			}
			return bit
		}
		ok := true
		for _, a := range assumptions {
			if !val(a) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				if val(l) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func newWithVars(n int) (*Solver, []Var) {
	s := New()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	return s, vars
}

func TestLitEncoding(t *testing.T) {
	v := Var(3)
	if PosLit(v).Var() != v || NegLit(v).Var() != v {
		t.Error("Var() roundtrip wrong")
	}
	if PosLit(v).IsNeg() || !NegLit(v).IsNeg() {
		t.Error("IsNeg wrong")
	}
	if PosLit(v).Not() != NegLit(v) || NegLit(v).Not() != PosLit(v) {
		t.Error("Not wrong")
	}
	if PosLit(v).String() != "x3" || NegLit(v).String() != "~x3" {
		t.Error("String wrong")
	}
}

func TestTrivial(t *testing.T) {
	s, vs := newWithVars(1)
	s.AddClause(PosLit(vs[0]))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.Value(vs[0]) {
		t.Error("model wrong")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s, vs := newWithVars(1)
	s.AddClause(PosLit(vs[0]))
	if !s.AddClause(NegLit(vs[0])) {
		// AddClause may already detect the conflict.
		if got := s.Solve(); got != Unsat {
			t.Fatalf("Solve = %v, want unsat", got)
		}
		return
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s, _ := newWithVars(1)
	if s.AddClause() {
		t.Error("empty clause accepted")
	}
	if got := s.Solve(); got != Unsat {
		t.Errorf("Solve = %v", got)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x0 and a chain x_i -> x_{i+1}.
	s, vs := newWithVars(20)
	s.AddClause(PosLit(vs[0]))
	for i := 0; i < 19; i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	for i := range vs {
		if !s.Value(vs[i]) {
			t.Fatalf("x%d should be true", i)
		}
	}
	if s.Decisions != 0 {
		t.Errorf("chain needed %d decisions, want 0", s.Decisions)
	}
}

func TestXorChain(t *testing.T) {
	// XOR constraints force search; parity makes it UNSAT.
	// x0 ^ x1 = 1, x1 ^ x2 = 1, x2 ^ x0 = 1 is unsatisfiable (odd cycle).
	s, vs := newWithVars(3)
	addXor := func(a, b Var) {
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(NegLit(a), NegLit(b))
	}
	addXor(vs[0], vs[1])
	addXor(vs[1], vs[2])
	addXor(vs[2], vs[0])
	if got := s.Solve(); got != Unsat {
		t.Fatalf("odd xor cycle = %v, want unsat", got)
	}
}

// pigeonhole n+1 pigeons, n holes: classic hard UNSAT family (the
// encoding lives in abort_test.go, which also uses it to keep a solve
// busy past a deadline).
func pigeonhole(t *testing.T, n int) {
	t.Helper()
	s := New()
	addPigeonhole(s, n+1, n)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(%d) = %v, want unsat", n, got)
	}
}

func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 7; n++ {
		pigeonhole(t, n)
	}
}

func TestAssumptions(t *testing.T) {
	s, vs := newWithVars(3)
	// (x0 | x1) & (~x0 | x2)
	s.AddClause(PosLit(vs[0]), PosLit(vs[1]))
	s.AddClause(NegLit(vs[0]), PosLit(vs[2]))
	if got := s.Solve(PosLit(vs[0]), NegLit(vs[2])); got != Unsat {
		t.Errorf("assumptions x0,~x2 = %v, want unsat", got)
	}
	// The solver is reusable after an assumption-unsat.
	if got := s.Solve(PosLit(vs[0])); got != Sat {
		t.Errorf("assumption x0 = %v, want sat", got)
	}
	if !s.Value(vs[0]) || !s.Value(vs[2]) {
		t.Error("model under assumptions wrong")
	}
	if got := s.Solve(NegLit(vs[0]), NegLit(vs[1])); got != Unsat {
		t.Errorf("assumptions ~x0,~x1 = %v, want unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Errorf("no assumptions = %v, want sat", got)
	}
}

func TestContradictoryAssumptions(t *testing.T) {
	s, vs := newWithVars(2)
	s.AddClause(PosLit(vs[0]), PosLit(vs[1]))
	if got := s.Solve(PosLit(vs[0]), NegLit(vs[0])); got != Unsat {
		t.Errorf("contradictory assumptions = %v, want unsat", got)
	}
}

func TestModelValidRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(13)
		numClauses := 2 + rng.Intn(5*n)
		clauses := make([][]Lit, numClauses)
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				v := Var(rng.Intn(n))
				if rng.Intn(2) == 0 {
					c[j] = PosLit(v)
				} else {
					c[j] = NegLit(v)
				}
			}
			clauses[i] = c
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		want := refSolve(n, clauses, nil)
		if !ok {
			if want {
				t.Fatalf("trial %d: AddClause says unsat, reference says sat", trial)
			}
			continue
		}
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("trial %d: Solve = %v, reference = %v", trial, got, want)
		}
		if got == Sat {
			// The model must satisfy every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					v := s.Value(l.Var())
					if (v && !l.IsNeg()) || (!v && l.IsNeg()) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy %v", trial, c)
				}
			}
		}
	}
}

func TestRandomWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(8)
		clauses := make([][]Lit, 3*n)
		for i := range clauses {
			c := make([]Lit, 1+rng.Intn(3))
			for j := range c {
				v := Var(rng.Intn(n))
				if rng.Intn(2) == 0 {
					c[j] = PosLit(v)
				} else {
					c[j] = NegLit(v)
				}
			}
			clauses[i] = c
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		// Try three different assumption sets against the reference.
		for k := 0; k < 3; k++ {
			var asm []Lit
			seen := map[Var]bool{}
			for j := 0; j < rng.Intn(3); j++ {
				v := Var(rng.Intn(n))
				if seen[v] {
					continue
				}
				seen[v] = true
				if rng.Intn(2) == 0 {
					asm = append(asm, PosLit(v))
				} else {
					asm = append(asm, NegLit(v))
				}
			}
			want := refSolve(n, clauses, asm)
			var got Status
			if !ok {
				got = Unsat
			} else {
				got = s.Solve(asm...)
			}
			if (got == Sat) != want {
				t.Fatalf("trial %d asm %v: Solve = %v, reference = %v", trial, asm, got, want)
			}
		}
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	// A hard instance: PHP(8) without enough budget.
	n := 8
	vars := make([][]Var, n+1)
	for p := range vars {
		vars[p] = make([]Var, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = PosLit(vars[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
	s.ConflictBudget = 50
	if got := s.Solve(); got != Unknown {
		t.Errorf("budgeted PHP(8) = %v, want unknown", got)
	}
	if s.Conflicts < 50 {
		t.Errorf("conflicts = %d, want >= 50", s.Conflicts)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s, vs := newWithVars(2)
	if !s.AddClause(PosLit(vs[0]), NegLit(vs[0])) {
		t.Error("tautology rejected")
	}
	if !s.AddClause(PosLit(vs[1]), PosLit(vs[1]), PosLit(vs[1])) {
		t.Error("duplicate literals rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.Value(vs[1]) {
		t.Error("deduplicated unit not propagated")
	}
}

func TestStatsPopulated(t *testing.T) {
	s, _ := newWithVars(0)
	_ = s
	s2 := New()
	vs := make([]Var, 30)
	for i := range vs {
		vs[i] = s2.NewVar()
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		a, b, c := Var(rng.Intn(30)), Var(rng.Intn(30)), Var(rng.Intn(30))
		s2.AddClause(PosLit(a), NegLit(b), PosLit(c))
		s2.AddClause(NegLit(a), PosLit(b), NegLit(c))
	}
	s2.Solve()
	if s2.Propagations == 0 {
		t.Error("no propagations recorded")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestClauseDBReduction(t *testing.T) {
	// Force aggressive reduction and cross-check answers against the
	// reference on instances hard enough to learn many clauses.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 12 + rng.Intn(8)
		var clauses [][]Lit
		for i := 0; i < 8*n; i++ {
			c := make([]Lit, 3)
			for j := range c {
				v := Var(rng.Intn(n))
				if rng.Intn(2) == 0 {
					c[j] = PosLit(v)
				} else {
					c[j] = NegLit(v)
				}
			}
			clauses = append(clauses, c)
		}
		s := New()
		s.maxLearn = 20 // reduce constantly
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		want := refSolve(n, clauses, nil)
		var got Status
		if !ok {
			got = Unsat
		} else {
			got = s.Solve()
		}
		if (got == Sat) != want {
			t.Fatalf("trial %d: Solve = %v, reference = %v", trial, got, want)
		}
		if got == Sat {
			for _, c := range clauses {
				satisfied := false
				for _, l := range c {
					v := s.Value(l.Var())
					if (v && !l.IsNeg()) || (!v && l.IsNeg()) {
						satisfied = true
					}
				}
				if !satisfied {
					t.Fatalf("trial %d: model violates clause after reduction", trial)
				}
			}
		}
	}
}

func TestReductionActuallyFires(t *testing.T) {
	// PHP(7) learns far more than 30 clauses; with maxLearn 30 the DB must
	// shrink at least once and the result stay unsat. Every reduction
	// must drop the watchers of the clauses it deletes, since propagate
	// does not check for dead clauses.
	s := New()
	s.maxLearn = 30
	addPigeonhole(s, 8, 7)
	reductions, deletions := 0, 0
	s.onReduce = func(compacted bool) {
		reductions++
		if compacted || s.wasted > 0 {
			deletions++
		}
		for l, ws := range s.watches {
			for _, w := range ws {
				if s.arena[w.ref()]&hdrDeleted != 0 {
					t.Fatalf("reduction %d: literal %v still watches deleted clause %d", reductions, Lit(l), w.ref())
				}
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(7) = %v", got)
	}
	if deletions == 0 {
		t.Errorf("no clauses were reduced despite tiny maxLearn (%d reductions)", reductions)
	}
}

// addParity constrains x0 ^ x1 ^ ... ^ x(n-1) = parity over fresh
// variables via the standard chain encoding, returning the variables.
// Parity chains produce long propagation-heavy searches, a Sat/Unsat
// workload that, unlike pigeonhole, has models to find.
func addParity(s cnfBuilder, n int, parity bool) []Var {
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	addXorChain(s, vars, parity)
	return vars
}

// addXorChain constrains the XOR of vars to parity through a chain of
// fresh accumulator variables.
func addXorChain(s cnfBuilder, vars []Var, parity bool) {
	acc := vars[0]
	for i := 1; i < len(vars); i++ {
		nxt := s.NewVar()
		// nxt = acc XOR vars[i]
		s.AddClause(NegLit(nxt), PosLit(acc), PosLit(vars[i]))
		s.AddClause(NegLit(nxt), NegLit(acc), NegLit(vars[i]))
		s.AddClause(PosLit(nxt), NegLit(acc), PosLit(vars[i]))
		s.AddClause(PosLit(nxt), PosLit(acc), NegLit(vars[i]))
		acc = nxt
	}
	if parity {
		s.AddClause(PosLit(acc))
	} else {
		s.AddClause(NegLit(acc))
	}
}

// TestParityModelIsGenuine checks the satisfiable side on a 40-variable
// parity chain plus a satisfiable pigeonhole: Sat must come with a model
// that really has odd parity.
func TestParityModelIsGenuine(t *testing.T) {
	s := New()
	vars := addParity(s, 40, true)
	addPigeonhole(s, 3, 3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("parity = %v, want sat", st)
	}
	par := false
	for _, v := range vars {
		par = par != s.Value(v)
	}
	if !par {
		t.Fatal("model violates the parity constraint")
	}
}

// TestRelativeUnsatKeepsDatabase: an Unsat under assumptions must not
// poison the solver's clause database, which the incremental engine
// relies on: the same solver must still answer Sat once the assumptions
// are dropped.
func TestRelativeUnsatKeepsDatabase(t *testing.T) {
	s := New()
	vars := addParity(s, 30, true)
	// Assume all inputs false: forces parity 0, contradicting the chain.
	assumptions := make([]Lit, len(vars))
	for i, v := range vars {
		assumptions[i] = NegLit(v)
	}
	if st := s.Solve(assumptions...); st != Unsat {
		t.Fatalf("assumed-all-false parity = %v, want unsat", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("after relative unsat, unconstrained solve = %v, want sat", st)
	}
}

// TestResumeAfterBudgetMatchesFresh: a solve cut off by its conflict
// budget leaves learnt clauses and level-0 facts behind. Lifting the
// budget and solving again on the same solver must reach the answer a
// fresh solver reaches, on both the satisfiable and the unsatisfiable
// side, the way the engine's shared per-expression solvers are reused.
func TestResumeAfterBudgetMatchesFresh(t *testing.T) {
	for _, parity := range []bool{false, true} {
		build := func() *Solver {
			s := New()
			addParity(s, 25, parity)
			addPigeonhole(s, 5, 4) // unsatisfiable, so the whole formula is
			return s
		}
		s := build()
		s.ConflictBudget = 30
		_ = s.Solve()
		s.ConflictBudget = 0
		if got, want := s.Solve(), build().Solve(); got != want || got != Unsat {
			t.Fatalf("parity %v: resumed %v, fresh %v, want unsat", parity, got, want)
		}

		s = New()
		vars := addParity(s, 25, parity)
		s.ConflictBudget = 3
		_ = s.Solve()
		s.ConflictBudget = 0
		if st := s.Solve(); st != Sat {
			t.Fatalf("parity %v: resumed satisfiable chain = %v, want sat", parity, st)
		}
		got := false
		for _, v := range vars {
			got = got != s.Value(v)
		}
		if got != parity {
			t.Fatalf("parity %v: resumed model has parity %v", parity, got)
		}
	}
}
