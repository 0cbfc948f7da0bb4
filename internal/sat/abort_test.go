package sat

import (
	"testing"
	"time"
)

// cnfBuilder is what the instance generators need of a solver, so the
// same instance can be loaded into Solver and the reference kernel.
type cnfBuilder interface {
	NewVar() Var
	AddClause(lits ...Lit) bool
}

// addPigeonhole encodes PHP(pigeons, holes): every pigeon sits in some
// hole, no hole holds two pigeons. Unsatisfiable when pigeons > holes,
// and exponentially hard for resolution-based solvers — a reliable way to
// keep the search busy far past any test deadline.
func addPigeonhole(s cnfBuilder, pigeons, holes int) {
	vars := make([][]Var, pigeons)
	for i := range vars {
		vars[i] = make([]Var, holes)
		for j := range vars[i] {
			vars[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = PosLit(vars[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(NegLit(vars[i][j]), NegLit(vars[k][j]))
			}
		}
	}
}

// TestAbortStopsInFlightSolve pins the deadline-overshoot bound: a solve
// that would run for minutes stops with Unknown within one abort check
// interval of the deadline firing. It also pins the interval itself:
// the callback is polled at most once per DefaultAbortCheckEvery
// propagations, far less often than once per propagation.
func TestAbortStopsInFlightSolve(t *testing.T) {
	s := New()
	addPigeonhole(s, 12, 11)
	// Backstop so a broken abort fails the test instead of hanging it:
	// about a minute of search on this instance.
	s.ConflictBudget = 500_000

	deadline := time.Now().Add(50 * time.Millisecond)
	polls := 0
	s.Abort = func() bool {
		polls++
		return !time.Now().Before(deadline)
	}

	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)

	if st != Unknown {
		t.Fatalf("Solve = %v, want Unknown (aborted)", st)
	}
	if polls == 0 {
		t.Fatalf("abort callback never polled")
	}
	// Polls come at least DefaultAbortCheckEvery propagations apart,
	// the first at the start of the solve.
	if most := 1 + s.Propagations/DefaultAbortCheckEvery; int64(polls) > most {
		t.Fatalf("%d polls over %d propagations, want at most %d", polls, s.Propagations, most)
	}
	// One check interval is DefaultAbortCheckEvery propagations — well
	// under a second of work even on a slow machine. Allow generous CI
	// slack; the pre-fix behavior was minutes.
	if elapsed > 5*time.Second {
		t.Fatalf("aborted solve took %v, want within one check interval of the 50ms deadline", elapsed)
	}
}

// TestAbortThatNeverFiresIsHarmless checks a wired-but-idle abort callback
// does not perturb results.
func TestAbortThatNeverFiresIsHarmless(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a))
	s.Abort = func() bool { return false }
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve = %v, want Sat", st)
	}
	if !s.Value(b) {
		t.Fatalf("model: b = false, want true")
	}
}
