package compare

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// dupCorpus builds a small duplication-heavy corpus: generated
// expressions each appearing as several shuffled alpha-variants, the
// shape the paper reports for the SPEC harvest (§3.1).
func dupCorpus() []harvest.Expr {
	return harvest.DuplicationShaped(harvest.Config{
		Seed:     42,
		NumExprs: 12,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 8, Weight: 3}, {Width: 4, Weight: 1}},
	}, 4)
}

// stripElapsed zeroes the timing fields the cached path replays, leaving
// only the semantic content for comparison.
func stripElapsed(rep *Report) *Report {
	out := &Report{Rows: make(map[harvest.Analysis]*Row), Findings: rep.Findings}
	for a, row := range rep.Rows {
		r := *row
		r.CPUTime = 0
		out.Rows[a] = &r
	}
	return out
}

func requireSameReport(t *testing.T, want, got *Report, label string) {
	t.Helper()
	w, g := stripElapsed(want), stripElapsed(got)
	if !reflect.DeepEqual(w.Rows, g.Rows) {
		t.Errorf("%s: rows differ:\nwant %v\ngot  %v", label, dumpRows(w), dumpRows(g))
	}
	if len(w.Findings) != len(g.Findings) {
		t.Fatalf("%s: %d findings, want %d", label, len(g.Findings), len(w.Findings))
	}
	for i := range w.Findings {
		if !reflect.DeepEqual(stripFindingTime(w.Findings[i]), stripFindingTime(g.Findings[i])) {
			t.Errorf("%s: finding %d differs:\nwant %+v\ngot  %+v", label, i, w.Findings[i], g.Findings[i])
		}
	}
}

func stripFindingTime(f Finding) Finding {
	f.Result.Elapsed = 0
	return f
}

func dumpRows(rep *Report) map[harvest.Analysis]Row {
	out := make(map[harvest.Analysis]Row, len(rep.Rows))
	for a, r := range rep.Rows {
		out[a] = *r
	}
	return out
}

// TestCachedRunMatchesUncached: a run with the cache must produce the
// same Table 1 rows, findings, lint check counts and n-way funnel as one
// without it, sequentially and with a worker pool, plain and with the
// n-way pre-filter and the consistency lint on.
func TestCachedRunMatchesUncached(t *testing.T) {
	corpus := dupCorpus()
	for _, nwayLint := range []bool{false, true} {
		mk := func() *Comparator {
			c := cleanComparator()
			c.NWay, c.Consistency = nwayLint, nwayLint
			return c
		}
		want := mk().Run(corpus)
		for _, workers := range []int{0, 8} {
			label := fmt.Sprintf("cached run (nway+consistency=%t, workers=%d)", nwayLint, workers)
			c := mk()
			c.Workers = workers
			c.Cache = rescache.New()
			got := c.Run(corpus)
			requireSameReport(t, want, got, label)
			if got.ConsistencyChecks != want.ConsistencyChecks {
				t.Errorf("%s: %d consistency checks, want %d", label, got.ConsistencyChecks, want.ConsistencyChecks)
			}
			if !reflect.DeepEqual(got.NWay, want.NWay) {
				t.Errorf("%s: n-way stats %+v, want %+v", label, got.NWay, want.NWay)
			}
			if got.Cache == nil {
				t.Fatalf("%s: no cache stats", label)
			}
			if got.Cache.Hits == 0 {
				t.Errorf("%s: no cache hits on a duplication-shaped corpus", label)
			}
		}
	}
}

// TestCachedRunFindingsPerEntry: findings from a cached run must carry
// each alpha-variant's own name and source text — the cache dedups work,
// not reports.
func TestCachedRunFindingsPerEntry(t *testing.T) {
	trigger := ir.MustParse(harvest.SoundnessTriggers[1].Source) // PR23011 srem sign bits
	rng := rand.New(rand.NewSource(5))
	corpus := []harvest.Expr{
		{Name: "orig", F: trigger, Freq: 1},
		{Name: "copy-a", F: harvest.ShuffledCopy(trigger, rng), Freq: 1},
		{Name: "copy-b", F: harvest.ShuffledCopy(trigger, rng), Freq: 1},
	}
	c := &Comparator{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}},
		Cache:    rescache.New(),
	}
	// The trigger has one variable and no commutative operand, so both
	// copies come out as the same text: one alpha-variant of the original.
	texts := map[string]bool{}
	for _, e := range corpus {
		texts[e.F.String()] = true
	}
	if len(texts) < 2 {
		t.Fatal("no alpha-variant in the corpus; test premise broken")
	}
	rep := c.Run(corpus)
	// The first entry misses; each further alpha-variant is answered
	// from the cache, one hit each, and a byte-identical copy is compared
	// once with its twin.
	if wantHits := uint64(len(texts) - 1); rep.Cache.Misses != 1 || rep.Cache.Hits != wantHits {
		t.Fatalf("cache misses/hits = %d/%d, want 1/%d", rep.Cache.Misses, rep.Cache.Hits, wantHits)
	}
	seen := map[string]string{}
	for _, f := range rep.Findings {
		seen[f.ExprName] = f.Source
	}
	for i, e := range corpus {
		src, ok := seen[e.Name]
		if !ok {
			t.Errorf("no finding for %s", e.Name)
			continue
		}
		if src != e.F.String() {
			t.Errorf("finding %d: source is not the entry's own text:\nwant %q\ngot  %q", i, e.F.String(), src)
		}
	}
	// Uncached runs must find the same bugs on the same entries.
	c2 := &Comparator{Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}}}
	requireSameReport(t, c2.Run(corpus), rep, "bug-injected cached run")
}

// TestWarmCacheSecondRun: a second run over the same corpus must be all
// hits and report identically.
func TestWarmCacheSecondRun(t *testing.T) {
	corpus := dupCorpus()
	c := cleanComparator()
	c.Cache = rescache.New()
	first := c.Run(corpus)
	second := c.Run(corpus)
	if second.Cache.Misses != 0 {
		t.Fatalf("second run had %d misses, want 0", second.Cache.Misses)
	}
	if second.Cache.Hits == 0 {
		t.Fatal("second run recorded no hits")
	}
	// With Elapsed replayed from the cache, even the timings must agree.
	if !reflect.DeepEqual(dumpRows(first), dumpRows(second)) {
		t.Errorf("warm rerun rows differ (timings should replay):\nfirst  %v\nsecond %v",
			dumpRows(first), dumpRows(second))
	}
	requireSameReport(t, first, second, "warm rerun")
}

// TestCacheFileAcrossRuns: save after a cold run, load into a fresh
// cache, and the next run must be all hits with an identical report —
// the artifact's persist-to-Redis workflow.
func TestCacheFileAcrossRuns(t *testing.T) {
	corpus := dupCorpus()
	path := filepath.Join(t.TempDir(), "oracle.cache")

	c1 := cleanComparator()
	c1.Cache = rescache.New()
	first := c1.Run(corpus)
	if err := c1.Cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	c2 := cleanComparator()
	c2.Cache = rescache.New()
	if err := c2.Cache.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	second := c2.Run(corpus)
	if second.Cache.Misses != 0 {
		t.Fatalf("run against loaded cache had %d misses, want 0", second.Cache.Misses)
	}
	if !reflect.DeepEqual(dumpRows(first), dumpRows(second)) {
		t.Errorf("reloaded-cache rows differ:\nfirst  %v\nsecond %v", dumpRows(first), dumpRows(second))
	}
	requireSameReport(t, first, second, "reloaded cache run")
}

// TestCacheKeyedOnConfig: results computed under one bug configuration
// must not be served to a comparator in another.
func TestCacheKeyedOnConfig(t *testing.T) {
	corpus := []harvest.Expr{
		{Name: "t", F: ir.MustParse(harvest.SoundnessTriggers[1].Source), Freq: 1},
	}
	cache := rescache.New()

	clean := cleanComparator()
	clean.Cache = cache
	cleanRep := clean.Run(corpus)
	if len(cleanRep.Findings) != 0 {
		t.Fatalf("clean compiler produced findings: %v", cleanRep.Findings)
	}

	buggy := &Comparator{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}},
		Cache:    cache,
	}
	buggyRep := buggy.Run(corpus)
	if len(buggyRep.Findings) == 0 {
		t.Fatal("injected bug not detected when sharing a cache with a clean run")
	}
}

// TestDefaultCacheConfig pins the cache key of the CLIs' default
// comparator to the one written while -no-seed, -no-strash and
// -enum-cutoff were flags, so cache files from then still hit.
func TestDefaultCacheConfig(t *testing.T) {
	c := &Comparator{}
	c.RegisterFlags(flag.NewFlagSet("precision-table", flag.ContinueOnError))
	const want = "bug-nonzero=false;bug-sremsign=false;bug-sremknown=false;modern=false;timeout=5m0s;no-seed=false;no-strash=false;enum-cutoff=0"
	if got := c.cacheConfig(); got != want {
		t.Errorf("cacheConfig() = %q, want %q", got, want)
	}
}

// TestCompareExprUsesCache: CompareExprContext goes through the cache, so
// a repeated expression is answered with the same results and zero
// solver queries.
func TestCompareExprUsesCache(t *testing.T) {
	reg := metrics.NewRegistry()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New(), Metrics: reg}
	first := c.CompareExprContext(context.Background(), ir.MustParse(flightExprSrc))
	queries := reg.Counter("solver_queries").Value()
	if queries == 0 {
		t.Fatal("first comparison cost zero solver queries; pick a harder expression")
	}
	second := c.CompareExprContext(context.Background(), ir.MustParse(flightExprSrc))
	if got := reg.Counter("solver_queries").Value() - queries; got != 0 {
		t.Errorf("repeated expression cost %d solver queries, want 0", got)
	}
	// Elapsed replays from the cache, so even the timings agree.
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated results differ:\n%v\nvs\n%v", first, second)
	}
}

// TestOldCacheFileStillHits loads testdata/old-cache.json, written by the
// comparator before its cached and uncached run paths were merged, with
// the corpus it was built from (testdata/old-cache.corpus: alpha-variants,
// a byte-identical copy, and the PR23011 trigger under its bug). Every
// lookup must hit, and the report must be the uncached run's.
func TestOldCacheFileStillHits(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "old-cache.corpus"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := harvest.ReadCorpus(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	an := &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}}
	cache := rescache.New()
	if err := cache.LoadFile(filepath.Join("testdata", "old-cache.json")); err != nil {
		t.Fatal(err)
	}
	want := (&Comparator{Analyzer: an}).Run(corpus)
	if len(want.Findings) == 0 {
		t.Fatal("the fixture corpus produced no findings; test premise broken")
	}
	for _, workers := range []int{0, 4} {
		c := &Comparator{Analyzer: an, Workers: workers, Cache: cache}
		got := c.Run(corpus)
		if got.Cache.Misses != 0 || got.Cache.Hits == 0 {
			t.Fatalf("workers=%d: %d misses, %d hits against the old cache file; want all hits",
				workers, got.Cache.Misses, got.Cache.Hits)
		}
		requireSameReport(t, want, got, fmt.Sprintf("old cache file (workers=%d)", workers))
	}
}

// TestOldCacheFileSavesUnchanged: testdata/old-cache.json, written while
// each analysis was its own cache entry, comes back from Load and Save
// byte for byte. Save still writes that layout, so a comparator of either
// kind reads the other's files.
func TestOldCacheFileSavesUnchanged(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "old-cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	cache := rescache.New()
	if err := cache.Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := cache.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), data) {
		t.Errorf("saving the loaded file changed it:\n%s\nwant\n%s", saved.Bytes(), data)
	}
}
