package compare

import (
	"context"
	"testing"
	"time"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// slowSrc is the 20-bit factoring instance from the solver's deadline
// tests: a single CanBeZero query on it takes the CDCL solver minutes,
// so a corpus of these keeps workers busy until cancellation.
const slowSrc = `%a:i20 = var
%b:i20 = var
%x:i40 = zext %a
%y:i40 = zext %b
%0:i40 = mul %x, %y
%1:i40 = xor %0, 389311259137:i40
infer %1`

// slowCorpus is slowSrc and three narrower semiprime variants: distinct
// sources (and canonical forms), so neither Run's exact-source grouping
// nor the cache collapses them, and there are several slow jobs to
// interrupt.
func slowCorpus() []harvest.Expr {
	return []harvest.Expr{
		{Name: "s1", F: ir.MustParse(slowSrc), Freq: 1},
		{Name: "s2", F: ir.MustParse("%a:i19 = var\n%b:i19 = var\n%x:i38 = zext %a\n%y:i38 = zext %b\n%0:i38 = mul %x, %y\n%1:i38 = xor %0, 109243065467:i38\ninfer %1"), Freq: 1},
		{Name: "s3", F: ir.MustParse("%a:i18 = var\n%b:i18 = var\n%x:i36 = zext %a\n%y:i36 = zext %b\n%0:i36 = mul %x, %y\n%1:i36 = xor %0, 22712542403:i36\ninfer %1"), Freq: 1},
		{Name: "s4", F: ir.MustParse("%a:i17 = var\n%b:i17 = var\n%x:i34 = zext %a\n%y:i34 = zext %b\n%0:i34 = mul %x, %y\n%1:i34 = xor %0, 11220699701:i34\ninfer %1"), Freq: 1},
	}
}

func checkPartialReport(t *testing.T, rep *Report, corpusLen int, elapsed time.Duration) {
	t.Helper()
	if elapsed > 30*time.Second {
		t.Fatalf("RunContext took %v after cancel; workers did not exit promptly", elapsed)
	}
	if !rep.Interrupted {
		t.Fatalf("report not marked interrupted (skipped=%d)", rep.Skipped)
	}
	if rep.Skipped == 0 {
		t.Fatal("no entries skipped; cancel landed too late to test interruption")
	}
	// Well-formed: every corpus entry is either aggregated or skipped,
	// and rows are internally consistent.
	analyzed := rep.Rows[harvest.KnownBits].Exprs
	if analyzed+rep.Skipped != corpusLen {
		t.Fatalf("analyzed %d + skipped %d != corpus %d", analyzed, rep.Skipped, corpusLen)
	}
	for a, row := range rep.Rows {
		if row.Total() < 0 || row.Exprs > corpusLen {
			t.Fatalf("row %s malformed: %+v", a, row)
		}
	}
}

// TestRunContextCancelMidCorpus: cancelling mid-run must stop workers at
// the next query-check interval and still yield a well-formed partial
// report.
func TestRunContextCancelMidCorpus(t *testing.T) {
	c := &Comparator{
		Analyzer: &llvmport.Analyzer{},
		Workers:  2,
		Metrics:  metrics.NewRegistry(),
	}
	corpus := slowCorpus()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(200*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	rep := c.RunContext(ctx, corpus)
	checkPartialReport(t, rep, len(corpus), time.Since(start))

	if got := c.Metrics.Gauge("workers_busy").Value(); got != 0 {
		t.Fatalf("workers_busy = %d after run, want 0", got)
	}
	if c.Metrics.Counter("exprs_skipped").Value() == 0 {
		t.Fatal("skip counter not recorded")
	}
}

// TestRunContextCancelMidCorpusCached is the same with a cache and a
// byte-identical copy of every entry: an unanalyzed source counts every
// entry that has it as skipped, so the partial report stays well-formed.
func TestRunContextCancelMidCorpusCached(t *testing.T) {
	c := &Comparator{
		Analyzer: &llvmport.Analyzer{},
		Workers:  2,
		Cache:    rescache.New(),
	}
	corpus := slowCorpus()
	for _, e := range slowCorpus() {
		e.Name += "-copy"
		corpus = append(corpus, e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(200*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	rep := c.RunContext(ctx, corpus)
	checkPartialReport(t, rep, len(corpus), time.Since(start))
}

// TestOracleCachedNeverMemoizesCancelled: results computed under a
// cancelled context are degraded by query aborts and must not poison the
// persistent cache (a resumed campaign would silently diverge). The
// oracle set is computed directly so the cancel provably lands during,
// not before, the expression's analysis.
func TestOracleCachedNeverMemoizesCancelled(t *testing.T) {
	cache := rescache.New()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every query degrades immediately, as mid-flight ones would

	f := ir.MustParse("%x:i8 = var\ninfer %x")
	o := c.oracleFor(ctx, f)
	if !o.Known.Exhausted {
		t.Fatal("cancelled oracle not degraded; test premise broken")
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cancelled computation memoized %d entries; cache poisoned", n)
	}

	// The same expression analyzed under a live context memoizes normally.
	o2 := c.oracleFor(context.Background(), f)
	if o2.Known.Exhausted {
		t.Fatal("clean recompute unexpectedly exhausted")
	}
	if cache.Len() == 0 {
		t.Fatal("clean recompute did not memoize")
	}
}

// TestCancelledBeforeOracleIsSkipped: on the run path an expression whose
// oracle has not started when the context is cancelled comes back as
// nothing, so its batch counts it as skipped rather than exhausted, and
// no oracle work is spent on it. An expression the n-way variants agree
// on needs no oracle and still completes. CompareExprContext keeps
// returning exhaustion-degraded results.
func TestCancelledBeforeOracleIsSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv %x, 3:i8\ninfer %0")
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Metrics: metrics.NewRegistry()}
	if got := c.compareOne(ctx, f, true); got != nil {
		t.Fatalf("cancelled expression compared: %+v", got.results)
	}
	if n := c.Metrics.Counter("exprs_compared").Value(); n != 0 {
		t.Fatalf("oracle ran %d times after the cancel", n)
	}
	rs := c.CompareExprContext(ctx, f)
	if len(rs) == 0 || rs[0].Outcome != ResourceExhausted {
		t.Fatalf("CompareExprContext after cancel = %+v, want exhausted results", rs)
	}

	agreed := ir.MustParse("%x:i8 = var\ninfer %x")
	c.NWay = true
	got := c.compareOne(ctx, agreed, true)
	if got == nil || got.nway == nil || !got.nway.agreed {
		t.Fatalf("agreeing expression not completed after the cancel: %+v", got)
	}
}
