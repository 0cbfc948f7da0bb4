package compare

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// flightCall is one in-flight computation: the leader fills val/err and
// closes done; waiters block on done and read the shared result.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// group collapses concurrent calls with the same key to one execution
// of fn, all callers sharing the one result — the single-flight pattern,
// implemented here (rather than imported) so waiters can be counted
// deterministically and so a panicking leader releases its waiters with
// an error instead of deadlocking them.
//
// Unlike a cache, a group holds no history: the key is forgotten the
// moment the leader finishes, so sequential calls with the same key each
// execute. Memoization is the result cache's job; the group only
// deduplicates the race window the cache cannot see.
//
// The zero value is ready to use.
type group[K comparable, V any] struct {
	mu        sync.Mutex
	calls     map[K]*flightCall[V]
	collapsed atomic.Uint64
}

// Do executes fn once among concurrent callers sharing key and returns
// fn's result to all of them. shared is false for the caller that
// executed fn (the leader) and true for callers that waited on it.
//
// A waiter increments the collapsed counter before blocking, so a
// leader can observe (via Collapsed) how many callers it is solving
// for while still inside fn — the hook the deterministic collapse
// tests rely on.
//
// If fn panics, waiters receive an error describing the panic and the
// panic is re-raised on the leader's goroutine.
func (g *group[K, V]) Do(key K, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		g.collapsed.Add(1)
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	release := func() {
		// Delete before closing done: a caller arriving after the close
		// must start a fresh flight, never attach to a finished one.
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("compare: flight %v panicked: %v", key, r)
			release()
			panic(r)
		}
		release()
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Collapsed returns the cumulative number of calls that shared another
// caller's execution instead of running their own.
func (g *group[K, V]) Collapsed() uint64 { return g.collapsed.Load() }

// InFlight returns the number of keys currently executing.
func (g *group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
