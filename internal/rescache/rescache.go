// Package rescache memoizes oracle results across expressions and runs.
// It is the in-process analog of the original artifact's Redis store: the
// paper's corpus statistics (§3.1) show 71.6% of harvested expressions
// recur, and every recurrence would otherwise re-pay dozens of SAT
// queries. The expression is the unit: one entry holds all eight oracle
// facts of one expression, keyed by its canonical form (internal/canon),
// the solver budget, and the compiler-under-test configuration, and
// carries the time each analysis took so that cached reports replay
// deterministic timings.
//
// The cache is safe for concurrent use by the comparator's worker pool
// and the fact service's queries. Internally it is lock-striped:
// entries live in a power-of-two number of shards selected by a hash of
// the key, each shard guarded by its own sync.RWMutex with a read-lock
// fast path for lookups, and the hit/miss counters are lock-free
// atomics. Under concurrent load the shards keep lookups from
// serializing behind one global mutex (DESIGN §12); with a single
// goroutine the behavior is identical to the old global-mutex cache.
//
// The cache persists to a versioned on-disk format (persist.go) — the
// analog of the artifact's dump.rdb — so cmd/precision-table and
// cmd/dfcheck-fuzz amortize oracle work across process runs via their
// -cache flag. The wire format is shard-oblivious: Save flattens all
// shards into one sorted entry list, so files written by any shard count
// load into any other.
package rescache

import (
	"sync"
	"sync/atomic"

	"dfcheck/internal/oracle"
)

// Key identifies one expression's memoized oracle results.
type Key struct {
	// Expr is the canonical Souper text of the expression (canon.Canon.Key).
	Expr string
	// Budget is the solver conflict budget of the expression's engine,
	// shared by all its queries, that the results were computed under.
	Budget int64
	// Config encodes the comparator configuration (bug injection, modern
	// mode, expression timeout) the results were computed under.
	Config string
}

// Entry is one expression's memoized results: its eight oracle facts and
// the time each analysis took. Replaying the times on hits keeps cached
// reports byte-identical across runs.
type Entry = oracle.All

// Stats counts cache traffic.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns the hit fraction in [0,1], or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// DefaultShards is the shard count New uses. 64 stripes keep the
// per-shard collision probability low for worker pools in the tens of
// goroutines while costing only 64 small maps when idle.
const DefaultShards = 64

// shard is one lock stripe. Lookups take the read lock, so concurrent
// hits on the same stripe do not serialize. Hit/miss counters live on
// the shard (one lock-free add per lookup), so per-stripe traffic is
// observable — the totals Stats reports are just their sum.
type shard struct {
	mu      sync.RWMutex
	entries map[Key]Entry
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// Cache is a concurrency-safe, lock-striped result cache.
type Cache struct {
	shards []*shard
	mask   uint64 // len(shards)-1; len is a power of two
}

// New returns an empty cache with DefaultShards stripes.
func New() *Cache { return NewSharded(DefaultShards) }

// NewSharded returns an empty cache with n lock stripes, rounded up to
// the next power of two. n < 1 selects a single stripe (the old
// global-mutex behavior, useful for ablation).
func NewSharded(n int) *Cache {
	if n < 1 {
		n = 1
	}
	np := 1
	for np < n {
		np <<= 1
	}
	c := &Cache{shards: make([]*shard, np), mask: uint64(np - 1)}
	for i := range c.shards {
		c.shards[i] = &shard{entries: make(map[Key]Entry)}
	}
	return c
}

// shardHash distributes keys across stripes. It intentionally samples a
// handful of bytes instead of digesting the whole key: canonical
// expression texts are tens to hundreds of bytes, and a full FNV pass
// would cost as much as the map lookup it is sharding. The sampled
// positions mix the head, the tail (canonical value-number suffixes
// differ even for same-length exprs), and the length, which spreads the
// real key population well (the rescache_shard_entries gauges make skew
// observable).
func shardHash(k Key) uint64 {
	h := uint64(len(k.Expr))<<6 ^ uint64(k.Budget)
	if n := len(k.Expr); n > 0 {
		h ^= uint64(k.Expr[0]) << 8
		h ^= uint64(k.Expr[n-1]) << 16
		h ^= uint64(k.Expr[n/2]) << 24
		if n > 4 {
			h ^= uint64(k.Expr[n-2]) << 32
			h ^= uint64(k.Expr[1]) << 40
		}
	}
	// Final avalanche so the low bits (the shard index) see every
	// sampled byte. Two multiply-xor-shift rounds of splitmix64.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (c *Cache) shardFor(k Key) *shard {
	return c.shards[shardHash(k)&c.mask]
}

func (s *shard) lookup(k Key) (Entry, bool) {
	s.mu.RLock()
	e, ok := s.entries[k]
	s.mu.RUnlock()
	return e, ok
}

// Get returns the entry for k, counting a hit or miss on k's shard.
func (c *Cache) Get(k Key) (Entry, bool) {
	s := c.shardFor(k)
	e, ok := s.lookup(k)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e, ok
}

// Peek returns the entry for k without counting a hit or a miss. The
// comparator's flight leader uses it to re-check the cache before it
// solves, so the check leaves the reported cache counts unchanged.
func (c *Cache) Peek(k Key) (Entry, bool) { return c.shardFor(k).lookup(k) }

// Put stores (or replaces) the entry for k.
func (c *Cache) Put(k Key, e Entry) {
	s := c.shardFor(k)
	s.mu.Lock()
	s.entries[k] = e
	s.mu.Unlock()
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Shards returns the number of lock stripes.
func (c *Cache) Shards() int { return len(c.shards) }

// ShardStat is one stripe's occupancy and traffic, for the per-shard
// rescache gauges on /metricsz.
type ShardStat struct {
	Len    int
	Hits   uint64
	Misses uint64
}

// ShardStats returns per-stripe occupancy and hit/miss counters.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, s := range c.shards {
		s.mu.RLock()
		out[i].Len = len(s.entries)
		s.mu.RUnlock()
		out[i].Hits = s.hits.Load()
		out[i].Misses = s.misses.Load()
	}
	return out
}

// Stats returns the cumulative hit/miss counters (the sum over shards).
func (c *Cache) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
	}
	return st
}

// snapshot copies the entry map for persistence. Shards are copied one
// at a time, so a snapshot taken during concurrent writes is a
// point-in-time view per shard rather than globally — fine for a
// memoization cache, where every entry is individually valid.
func (c *Cache) snapshot() map[Key]Entry {
	out := make(map[Key]Entry, c.Len())
	for _, s := range c.shards {
		s.mu.RLock()
		for k, e := range s.entries {
			out[k] = e
		}
		s.mu.RUnlock()
	}
	return out
}
