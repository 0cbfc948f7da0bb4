package compare

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Under 100 concurrent identical calls, exactly one execution is
// observed, everyone shares its result, and the other 99 are counted as
// collapsed. The barrier holds the leader inside fn until every other
// caller has attached, so the count is deterministic, not
// timing-dependent.
func TestGroupCollapses100ConcurrentIdenticalCalls(t *testing.T) {
	const n = 100
	var g group
	var execs atomic.Int64
	fn := func() (any, error) {
		execs.Add(1)
		// Hold the flight open until all n-1 waiters have attached.
		deadline := time.Now().Add(10 * time.Second)
		for g.Collapsed() < n-1 {
			if time.Now().After(deadline) {
				return nil, errors.New("timed out waiting for waiters")
			}
			time.Sleep(50 * time.Microsecond)
		}
		return "the result", nil
	}

	var wg sync.WaitGroup
	vals := make([]any, n)
	errs := make([]error, n)
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i], shared[i] = g.Do("same-key", fn)
		}(i)
	}
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want exactly 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != "the result" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if got := g.Collapsed(); got != n-1 {
		t.Fatalf("Collapsed() = %d, want %d", got, n-1)
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after completion", g.InFlight())
	}
}

// Distinct keys must not serialize on each other.
func TestGroupDistinctKeysRunIndependently(t *testing.T) {
	var g group
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do(fmt.Sprintf("key-%d", i), func() (any, error) {
				execs.Add(1)
				return i, nil
			})
			if err != nil || v != i {
				t.Errorf("key-%d: got %v, %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if execs.Load() != 8 {
		t.Fatalf("execs = %d, want 8", execs.Load())
	}
}

// A group is not a cache: sequential calls with the same key each
// execute (memoization belongs to rescache).
func TestGroupSequentialCallsRerun(t *testing.T) {
	var g group
	var execs int
	for i := 0; i < 3; i++ {
		if _, err, shared := g.Do("k", func() (any, error) { execs++; return nil, nil }); err != nil || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
	}
	if execs != 3 {
		t.Fatalf("execs = %d, want 3", execs)
	}
	if g.Collapsed() != 0 {
		t.Fatalf("Collapsed = %d, want 0", g.Collapsed())
	}
}

// Errors are shared like values.
func TestGroupSharesError(t *testing.T) {
	var g group
	want := errors.New("solve failed")
	_, err, _ := g.Do("k", func() (any, error) { return nil, want })
	if err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// A panicking leader must release its waiters with an error, then
// re-panic on its own goroutine — waiters deadlocking on a dead flight
// would hang the whole worker pool.
func TestGroupPanicReleasesWaiters(t *testing.T) {
	var g group
	started := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		<-started
		for g.InFlight() == 0 { // wait for the leader's flight to exist
			time.Sleep(50 * time.Microsecond)
		}
		_, err, _ := g.Do("k", func() (any, error) {
			return nil, errors.New("waiter must not execute")
		})
		waiterDone <- err
	}()

	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		close(started)
		g.Do("k", func() (any, error) {
			for g.Collapsed() == 0 { // hold until the waiter attaches
				time.Sleep(50 * time.Microsecond)
			}
			panic("boom")
		})
	}()

	select {
	case r := <-leaderPanicked:
		if r != "boom" {
			t.Fatalf("leader recovered %v, want boom", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader never finished")
	}
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter got nil error from a panicked flight")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter deadlocked on panicked flight")
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after panic", g.InFlight())
	}
}
