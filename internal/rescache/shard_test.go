package rescache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dfcheck/internal/oracle"
)

func TestNewShardedRoundsToPowerOfTwo(t *testing.T) {
	cases := []struct{ n, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {17, 32}, {64, 64}, {100, 128},
	}
	for _, tc := range cases {
		if got := NewSharded(tc.n).Shards(); got != tc.want {
			t.Errorf("NewSharded(%d).Shards() = %d, want %d", tc.n, got, tc.want)
		}
	}
	if got := New().Shards(); got != DefaultShards {
		t.Errorf("New().Shards() = %d, want %d", got, DefaultShards)
	}
}

// A single-stripe cache must behave exactly like the old global-mutex
// cache: every operation works, and the shard lengths sum to Len.
func TestSingleShardEquivalence(t *testing.T) {
	c := NewSharded(1)
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	for key, e := range sampleEntries() {
		got, ok := c.Get(key)
		if !ok || got.Elapsed != e.Elapsed {
			t.Fatalf("single-shard Get(%+v) = %+v, %v", key, got, ok)
		}
	}
	stats := c.ShardStats()
	if len(stats) != 1 || stats[0].Len != c.Len() {
		t.Fatalf("ShardStats = %+v, Len = %d", stats, c.Len())
	}
}

// The shard hash must actually spread a realistic key population: with
// many more keys than stripes, no stripe may stay empty-heavy. (The keys
// mimic canonical Souper texts: shared prefix, differing bodies.)
func TestShardLensSpread(t *testing.T) {
	c := NewSharded(8)
	const n = 4096
	for i := 0; i < n; i++ {
		key := Key{
			Expr:     fmt.Sprintf("%%0:i8 = add 1:i8, %%x%d\ninfer %%0 ; v%d", i, i*7),
			Analysis: "known bits",
			Budget:   100,
		}
		c.Put(key, Entry{Value: oracle.BoolResult{}})
	}
	var lens []int
	total, max := 0, 0
	for _, st := range c.ShardStats() {
		lens = append(lens, st.Len)
		total += st.Len
		if st.Len > max {
			max = st.Len
		}
	}
	if total != n || total != c.Len() {
		t.Fatalf("shard lengths sum to %d, want %d (Len %d)", total, n, c.Len())
	}
	// Perfect balance is n/8 = 512 per stripe; reject gross skew (any
	// stripe holding more than 3x its fair share).
	if max > 3*n/8 {
		t.Fatalf("shard skew: max stripe holds %d of %d (lens %v)", max, n, lens)
	}
}

// The satellite race test: concurrent Get/Put across shards while other
// goroutines Save and Load the same cache. Run under -race this proves
// the striped locking and the snapshot/commit paths are data-race free;
// run normally it proves every concurrently-taken snapshot is a valid,
// loadable file (each entry individually complete — no torn entries).
func TestConcurrentGetPutSaveAcrossShards(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.cache")
	c := New()
	// Pre-populate so early saves have content.
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := kBool(fmt.Sprintf("expr-%d-%d", g, i%64))
				if _, ok := c.Get(key); !ok {
					c.Put(key, Entry{
						Value:   oracle.BoolResult{Outcome: oracle.Outcome{Feasible: true}, Proved: i%2 == 0},
						Elapsed: time.Duration(i) * time.Microsecond,
					})
				}
			}
		}(g)
	}
	// Saver + loader: every snapshot written during the write storm must
	// load cleanly into a fresh cache.
	for round := 0; round < 20; round++ {
		if err := c.SaveFile(path); err != nil {
			t.Fatalf("round %d: SaveFile: %v", round, err)
		}
		fresh := New()
		if err := fresh.LoadFile(path); err != nil {
			t.Fatalf("round %d: snapshot does not load: %v", round, err)
		}
		if fresh.Len() == 0 {
			t.Fatalf("round %d: snapshot empty", round)
		}
	}
	close(stop)
	wg.Wait()

	// Final full round trip.
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := New()
	if err := fresh.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != c.Len() {
		t.Fatalf("final snapshot has %d entries, cache has %d", fresh.Len(), c.Len())
	}
}

// Crash-mid-save: a process killed between CreateTemp and Rename leaves
// a stray temp file but never a torn cache file. Simulate the stray (a
// half-written temp as the dying save would leave) and assert (a) the
// installed cache file is untouched and still loads, and (b) a
// subsequent SaveFile with its own unique temp is not confused by the
// debris and installs a complete snapshot.
func TestCrashMidSaveLeavesLoadableFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.cache")

	c := New()
	for key, e := range sampleEntries() {
		c.Put(key, e)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The crash: a torn temp file from an interrupted save.
	stray := filepath.Join(dir, ".rescache-crashed123")
	if err := os.WriteFile(stray, before[:len(before)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// The installed file is unaffected by the crashed writer.
	got := New()
	if err := got.LoadFile(path); err != nil {
		t.Fatalf("cache file unreadable after simulated crash: %v", err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("loaded %d entries, want %d", got.Len(), c.Len())
	}

	// The next save writes through its own temp and wins cleanly.
	c.Put(kBool("post-crash"), Entry{Value: oracle.BoolResult{Proved: true}})
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got2 := New()
	if err := got2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got2.Len() != c.Len() {
		t.Fatalf("post-crash save has %d entries, want %d", got2.Len(), c.Len())
	}
	if _, ok := got2.Get(kBool("post-crash")); !ok {
		t.Fatal("post-crash entry missing from snapshot")
	}
}
