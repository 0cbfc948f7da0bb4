package solver

import (
	"context"
	"testing"
	"time"

	"dfcheck/internal/ir"
)

// factoringSrc encodes 20-bit factoring of the semiprime
// 389311259137 = 576287 * 675551: CanBeZero on the xor is satisfiable
// only by the nontrivial factorization, which takes the CDCL solver
// minutes (the 16-bit analog already takes seconds). It is the
// "constructed slow query" of the deadline-overshoot regression: before
// the in-flight abort existed, this single query ran to completion no
// matter how far past the per-expression deadline it went.
const factoringSrc = `%a:i20 = var
%b:i20 = var
%x:i40 = zext %a
%y:i40 = zext %b
%0:i40 = mul %x, %y
%1:i40 = xor %0, 389311259137:i40
infer %1`

func runDeadlineTest(t *testing.T, e Engine) {
	t.Helper()
	start := time.Now()
	_, ok := e.CanBeZero()
	elapsed := time.Since(start)
	if ok {
		t.Fatalf("slow query completed in %v; expected a deadline abort", elapsed)
	}
	st := e.Stats()
	if st.Exhausted == 0 {
		t.Fatalf("aborted in-flight query not counted as exhausted: %+v", st)
	}
	// The abort fires within one sat check interval of the deadline —
	// sub-millisecond of search work. Allow generous CI slack; running
	// the query to completion takes far longer than this bound.
	if elapsed > 5*time.Second {
		t.Fatalf("query overshot the 20ms deadline by %v", elapsed)
	}
}

// TestDeadlineAbortsInFlightQuery pins the overshoot of a query already
// running when the per-expression deadline expires (incremental path).
func TestDeadlineAbortsInFlightQuery(t *testing.T) {
	e := NewSAT(ir.MustParse(factoringSrc), 0)
	e.Deadline = time.Now().Add(20 * time.Millisecond)
	runDeadlineTest(t, e)
}

// TestDeadlineAbortsInFlightQueryFresh covers the fresh-solver reference
// path (fresh_test.go).
func TestDeadlineAbortsInFlightQueryFresh(t *testing.T) {
	e := newFreshSAT(ir.MustParse(factoringSrc), 0)
	e.Deadline = time.Now().Add(20 * time.Millisecond)
	runDeadlineTest(t, e)
}

// TestContextCancelAbortsInFlightQuery checks cancellation reaches a
// query mid-search, the mechanism RunContext uses to stop workers.
func TestContextCancelAbortsInFlightQuery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	e := NewSAT(ir.MustParse(factoringSrc), 0)
	e.Ctx = ctx
	runDeadlineTest(t, e)
}

// TestExpiredDeadlineFailsFast: queries issued after expiry return
// immediately and count as exhausted (the pre-existing behavior).
func TestExpiredDeadlineFailsFast(t *testing.T) {
	e := NewSAT(ir.MustParse("%x:i8 = var\ninfer %x"), 0)
	e.Deadline = time.Now().Add(-time.Second)
	if _, ok := e.Feasible(); ok {
		t.Fatal("expired deadline did not fail the query")
	}
	if st := e.Stats(); st.Queries != 1 || st.Exhausted != 1 {
		t.Fatalf("stats = %+v, want 1 query, 1 exhausted", st)
	}
}
