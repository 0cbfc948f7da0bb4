package sat

import "testing"

// The PHP(7,6) instance (addPigeonhole in abort_test.go) forces real
// search — conflicts, learning, restarts — which is what a Stats test
// needs to observe.
func TestStatsSnapshot(t *testing.T) {
	s := New()
	before := s.Stats()
	if before != (Stats{}) {
		t.Fatalf("fresh solver stats = %+v, want zero", before)
	}
	addPigeonhole(s, 7, 6)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6) = %v, want unsat", st)
	}
	after := s.Stats()
	if after.Conflicts == 0 || after.Propagations == 0 || after.Decisions == 0 {
		t.Fatalf("no search recorded: %+v", after)
	}
	if after.Learned == 0 {
		t.Fatalf("unsat CDCL run learned no clauses: %+v", after)
	}
	if after.Vars != 42 {
		t.Fatalf("Vars = %d, want 42", after.Vars)
	}
	if after.Clauses == 0 {
		t.Fatalf("no problem clauses recorded: %+v", after)
	}
	// The snapshot must agree with the exported legacy counters.
	if after.Conflicts != s.Conflicts || after.Propagations != s.Propagations ||
		after.Decisions != s.Decisions || after.Restarts != s.Restarts {
		t.Fatalf("snapshot %+v disagrees with exported counters", after)
	}

	delta := after.Sub(before)
	if delta != after {
		t.Fatalf("Sub(zero) = %+v, want %+v", delta, after)
	}
	// A second solve on the (now level-0 unsat) instance does no work.
	s.Solve()
	if d := s.Stats().Sub(after); d.Conflicts != 0 && d.Conflicts < 0 {
		t.Fatalf("negative delta: %+v", d)
	}
}

func TestStatsLearnedCountsUnits(t *testing.T) {
	// A chain a→b→…→z with a forced contradiction at the end produces
	// unit learnt clauses that never enter the clause database; Learned
	// must count them anyway.
	s := New()
	const n = 8
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	s.AddClause(NegLit(vs[0]), NegLit(vs[n-1]))
	if st := s.Solve(); st != Sat {
		t.Fatalf("chain = %v, want sat", st)
	}
	// The instance is satisfiable without conflicts only if the solver
	// guesses right; either way Learned must never exceed Conflicts.
	st := s.Stats()
	if st.Learned > st.Conflicts {
		t.Fatalf("Learned %d > Conflicts %d", st.Learned, st.Conflicts)
	}
}
