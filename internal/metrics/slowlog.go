package metrics

import (
	"sort"
	"sync"
	"time"
)

// SlowLog is a bounded ring of the N slowest operations a service has
// performed — the "what is eating the solver" view an operator checks
// when p99 moves. Admission is by duration: once the ring is full, a new
// entry must beat the current floor (the fastest retained entry) to get
// in, so the log converges on the campaign's pathological expressions
// instead of its most recent ones. Memory is bounded by capacity; cost
// per Note is O(capacity) only on admission and O(1) (one lock, one
// compare) on the overwhelmingly common rejection path.
//
// A nil *SlowLog is a valid no-op sink, so instrumented code never
// guards recording.
type SlowLog struct {
	mu      sync.Mutex
	cap     int
	entries []SlowEntry // sorted slowest-first
}

// SlowEntry is one retained slow operation. Detail carries free-form
// solver statistics (fact counts, approximate solver-query deltas);
// everything else is structured so dashboards can sort and link.
type SlowEntry struct {
	When    time.Time     `json:"when"`
	Hash    string        `json:"hash"`  // canonical hash, %016x
	Op      string        `json:"op"`    // root opcode
	Width   uint          `json:"width"` // root bit width
	Elapsed time.Duration `json:"elapsed_ns"`
	Detail  string        `json:"detail,omitempty"`
	Err     string        `json:"err,omitempty"`
}

// DefaultSlowLogSize is the ring capacity NewSlowLog selects for n <= 0.
const DefaultSlowLogSize = 32

// NewSlowLog returns a log retaining the n slowest entries.
func NewSlowLog(n int) *SlowLog {
	if n <= 0 {
		n = DefaultSlowLogSize
	}
	return &SlowLog{cap: n}
}

// Note offers an entry and reports whether it was admitted — callers use
// the verdict to mark the corresponding span slow.
// Nil-safe.
func (l *SlowLog) Note(e SlowEntry) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= l.cap {
		if e.Elapsed <= l.entries[len(l.entries)-1].Elapsed {
			return false
		}
		l.entries = l.entries[:len(l.entries)-1]
	}
	// Insert keeping slowest-first order.
	i := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].Elapsed < e.Elapsed
	})
	l.entries = append(l.entries, SlowEntry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
	return true
}

// Snapshot returns a copy of the retained entries, slowest first.
// Nil-safe (returns nil).
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, len(l.entries))
	copy(out, l.entries)
	return out
}
