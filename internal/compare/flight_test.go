package compare

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// A moderately hard expression: wide enough to skip the enumeration
// fast path, so the oracle pays real solver queries that the flight can
// save.
const flightExprSrc = "%x:i14 = var\n%y:i14 = var\n%0:i14 = mul %x, %y\n%1:i14 = xor %0, %y\ninfer %1"

// Byte-identical entries in one Run are compared once: n copies cost
// exactly the solo solver queries, sequentially and on n workers, while
// the rows, lint checks and n-way funnel count every copy and each
// copy's findings carry its own name and source.
func TestFlightCollapsesConcurrentDuplicates(t *testing.T) {
	const n = 8
	src := harvest.SoundnessTriggers[1].Source // PR23011 srem sign bits
	an := &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}}
	mk := func(workers int, reg *metrics.Registry) *Comparator {
		return &Comparator{Analyzer: an, Workers: workers, Metrics: reg, NWay: true, Consistency: true}
	}
	soloReg := metrics.NewRegistry()
	soloRep := mk(1, soloReg).Run([]harvest.Expr{{Name: "solo", F: ir.MustParse(src), Freq: 1}})
	soloQueries := soloReg.Counter("solver_queries").Value()
	if soloQueries == 0 {
		t.Fatal("baseline expression cost zero solver queries; pick a harder one")
	}
	if len(soloRep.Findings) == 0 || soloRep.ConsistencyChecks == 0 || soloRep.NWay.Escalated != 1 {
		t.Fatalf("solo run: %d findings, %d lint checks, n-way %+v; want findings, checks and an escalation",
			len(soloRep.Findings), soloRep.ConsistencyChecks, soloRep.NWay)
	}

	corpus := make([]harvest.Expr, n)
	for i := range corpus {
		// Distinct parses of identical text: grouping keys on the source,
		// not the pointer.
		corpus[i] = harvest.Expr{Name: fmt.Sprintf("dup-%d", i), F: ir.MustParse(src), Freq: 1}
	}
	for _, workers := range []int{1, n} {
		reg := metrics.NewRegistry()
		rep := mk(workers, reg).Run(corpus)
		if got := reg.Counter("solver_queries").Value(); got != soloQueries {
			t.Errorf("workers=%d: solver_queries = %d for %d copies, want the solo cost %d (one solve)",
				workers, got, n, soloQueries)
		}
		for _, a := range harvest.AllAnalyses {
			s, p := soloRep.Rows[a], rep.Rows[a]
			if p.Same != n*s.Same || p.OracleMP != n*s.OracleMP || p.LLVMMP != n*s.LLVMMP || p.Exhausted != n*s.Exhausted {
				t.Errorf("workers=%d, %s: rows %+v are not %d x solo rows %+v", workers, a, *p, n, *s)
			}
		}
		if rep.ConsistencyChecks != n*soloRep.ConsistencyChecks {
			t.Errorf("workers=%d: %d lint checks, want %d x %d", workers, rep.ConsistencyChecks, n, soloRep.ConsistencyChecks)
		}
		s, p := *soloRep.NWay, *rep.NWay
		if p != (NWayStats{n * s.Exprs, n * s.Agreed, n * s.Escalated, n * s.Dead,
			n * s.Comparisons, n * s.Disagreements, n * s.Contradictions}) {
			t.Errorf("workers=%d: n-way stats %+v are not %d x solo %+v", workers, p, n, s)
		}
		per := len(soloRep.Findings)
		if len(rep.Findings) != n*per {
			t.Fatalf("workers=%d: %d findings, want %d x %d", workers, len(rep.Findings), n, per)
		}
		for i, fd := range rep.Findings {
			e := corpus[i/per]
			if fd.ExprName != e.Name || fd.Source != e.F.String() {
				t.Errorf("workers=%d: finding %d names %q, want %q", workers, i, fd.ExprName, e.Name)
			}
			got, want := stripFindingTime(fd).Result, stripFindingTime(soloRep.Findings[i%per]).Result
			if got != want {
				t.Errorf("workers=%d: finding %d result %+v, want %+v", workers, i, got, want)
			}
		}
	}
}

// Grouping spans one Run, not several: two uncached Runs over the same
// expression each solve it (memoization across Runs is the cache's job).
func TestFlightSequentialRunsDoNotCollapse(t *testing.T) {
	reg := metrics.NewRegistry()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, Metrics: reg}
	corpus := []harvest.Expr{{Name: "a", F: ir.MustParse(flightExprSrc), Freq: 1}}
	c.Run(corpus)
	first := reg.Counter("solver_queries").Value()
	c.Run(corpus)
	if got := reg.Counter("solver_queries").Value(); first == 0 || got != 2*first {
		t.Errorf("solver_queries = %d after the first Run, %d after the second; want the second to solve again", first, got)
	}
}

// The cache's per-analysis flight: 8 goroutines querying the same
// expression through OracleFacts (the fact service's query path) share
// one comparator with a cold sharded cache. Every (analysis) solve must
// happen exactly once — answered by the cache for late arrivals or by
// the flight for racers — never 8 times.
func TestCachedFlightDeduplicatesOracleFacts(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	c := &Comparator{
		Analyzer: &llvmport.Analyzer{},
		Cache:    rescache.New(), // the cache arms the flight
		Metrics:  reg,
	}
	c.flightHook = func() {
		// Hold the first leader until all racers have reached the
		// flight; later leaders see the condition already satisfied.
		deadline := time.Now().Add(30 * time.Second)
		for c.flight.Collapsed() < n-1 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	f := ir.MustParse(flightExprSrc)
	var wg sync.WaitGroup
	factSets := make([][]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rendered []string
			for _, fc := range c.OracleFacts(context.Background(), ir.MustParse(flightExprSrc)) {
				rendered = append(rendered, fc.Analysis+"="+fc.Fact)
			}
			factSets[i] = rendered
		}(i)
	}
	wg.Wait()

	// Each analysis was solved at most once: a solo uncached run of the
	// same expression bounds the concurrent total. (Engine state differs
	// slightly between a shared-engine solo run and per-leader engines,
	// so allow headroom — the point is the 8x redundancy is gone.)
	soloReg := metrics.NewRegistry()
	solo := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, Metrics: soloReg}
	solo.Run([]harvest.Expr{{Name: "solo", F: f, Freq: 1}})
	soloQ := soloReg.Counter("solver_queries").Value()
	gotQ := reg.Counter("solver_queries").Value()
	if gotQ > 2*soloQ {
		t.Errorf("concurrent cached queries cost %d solver queries; solo costs %d — dedup failed", gotQ, soloQ)
	}
	if collapsed := c.flight.Collapsed(); collapsed < n-1 {
		t.Errorf("flight collapsed %d queries, want at least %d", collapsed, n-1)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(factSets[i], factSets[0]) {
			t.Errorf("goroutine %d facts differ:\n%v\nvs\n%v", i, factSets[i], factSets[0])
		}
	}
}

// The flight's lookup→join window: a caller misses the cache, and before
// it joins the flight another caller's leader stores its results and
// leaves. The hook stands in for that leader, loading a warm cache's
// entries when the call's first flight starts. The leader must re-check
// the cache and adopt the entry instead of solving a second time: no
// solver query, one miss, seven hits, and one adoption counted in
// flight_collapsed.
func TestFlightLeaderRechecksCache(t *testing.T) {
	src := "%x:i8 = var\n%0:i8 = and 15:i8, %x\ninfer %0"
	ctx := context.Background()
	warm := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New()}
	want := warm.OracleFacts(ctx, ir.MustParse(src))
	var saved bytes.Buffer
	if err := warm.Cache.Save(&saved); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New(), Metrics: reg}
	loaded := false
	c.flightHook = func() {
		if !loaded {
			loaded = true
			if err := c.Cache.Load(&saved); err != nil {
				t.Error(err)
			}
		}
	}
	got := c.OracleFacts(ctx, ir.MustParse(src))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("facts differ from the warm cache's:\n%v\nvs\n%v", got, want)
	}
	if q := reg.Counter("solver_queries").Value(); q != 0 {
		t.Errorf("solver_queries = %d, want 0 (the leader re-checks the cache)", q)
	}
	if st := c.Cache.Stats(); st.Misses != 1 || st.Hits != 7 {
		t.Errorf("cache stats %+v, want 1 miss and 7 hits (the re-check counts neither)", st)
	}
	if n := reg.Counter("flight_collapsed").Value(); n != 1 {
		t.Errorf("flight_collapsed = %d, want 1 (the adopted entry)", n)
	}
}

// OracleFacts must render identically on every path: uncached, cache
// miss, and cache hit — including the demanded-bits remap through the
// canonical variable namespace that a cached lookup performs.
func TestOracleFactsRenderingPathsAgree(t *testing.T) {
	src := "%a:i8 = var\n%b:i8 = var\n%0:i8 = and 15:i8, %a\n%1:i8 = or %0, %b\ninfer %1"
	ctx := context.Background()

	uncached := &Comparator{Analyzer: &llvmport.Analyzer{}}
	plain := uncached.OracleFacts(ctx, ir.MustParse(src))

	cached := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New()}
	miss := cached.OracleFacts(ctx, ir.MustParse(src))
	hit := cached.OracleFacts(ctx, ir.MustParse(src))

	if len(plain) != 7+2 {
		t.Fatalf("%d facts, want 9 (7 scalar + 2 demanded)", len(plain))
	}
	if !reflect.DeepEqual(plain, miss) {
		t.Errorf("uncached vs cache-miss facts differ:\n%v\nvs\n%v", plain, miss)
	}
	if !reflect.DeepEqual(miss, hit) {
		t.Errorf("cache-miss vs cache-hit facts differ:\n%v\nvs\n%v", miss, hit)
	}
	// An alpha-variant (renamed variables) must get facts under its own
	// names, served from the same cache lines.
	variant := cached.OracleFacts(ctx, ir.MustParse(
		"%p:i8 = var\n%q:i8 = var\n%0:i8 = and 15:i8, %p\n%1:i8 = or %0, %q\ninfer %1"))
	if len(variant) != len(plain) {
		t.Fatalf("variant has %d facts, want %d", len(variant), len(plain))
	}
	for i := range plain {
		if i < 7 && variant[i] != plain[i] {
			t.Errorf("scalar fact %d differs for alpha-variant: %v vs %v", i, variant[i], plain[i])
		}
	}
	if variant[7].Analysis != "demanded bits (p)" || variant[8].Analysis != "demanded bits (q)" {
		t.Errorf("variant demanded labels = %q, %q", variant[7].Analysis, variant[8].Analysis)
	}
	if variant[7].Fact != plain[7].Fact || variant[8].Fact != plain[8].Fact {
		t.Errorf("variant demanded masks differ: %v/%v vs %v/%v",
			variant[7].Fact, variant[8].Fact, plain[7].Fact, plain[8].Fact)
	}
}
