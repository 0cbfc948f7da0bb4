// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus microbenchmarks for each substrate. Run with:
//
//	go test -bench=. -benchmem
//
// Table 1 benches measure the full comparator (LLVM-port analyses + the
// solver-based oracle) per analysis row. Table 2 benches measure the
// fact-driven optimizer under both fact sources. The §3.1 bench measures
// corpus harvesting, and the Figure 2 bench the known-bits lattice
// operations the separability argument relies on.
package dfcheck_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/compare"
	"dfcheck/internal/constrange"
	"dfcheck/internal/eval"
	"dfcheck/internal/factsvc"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/opt"
	"dfcheck/internal/oracle"
	"dfcheck/internal/rescache"
	"dfcheck/internal/sat"
	"dfcheck/internal/solver"
)

// benchCorpus is a small deterministic corpus at solver-friendly widths.
func benchCorpus(n int) []harvest.Expr {
	return harvest.Generate(harvest.Config{
		Seed:     42,
		NumExprs: n,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 8, Weight: 3}, {Width: 4, Weight: 1}},
	})
}

// --- §3.1: corpus harvesting statistics ---

func BenchmarkHarvestCorpusStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus := harvest.Generate(harvest.Config{Seed: int64(i), NumExprs: 200, MaxInsts: 20})
		_ = harvest.ComputeStats(corpus)
	}
}

// --- Table 1: one bench per analysis row ---

// benchTable1 measures the production oracle path per analysis: engine
// selection (enumeration below the width cutoff, strashed incremental SAT
// above), sound-fact seeding, and one shared engine per expression. The
// reported metrics expose the pre-solver work elimination: gates built vs
// deduped by strashing, queries answered by the seed, and queries served
// by enumeration.
func benchTable1(b *testing.B, analysis harvest.Analysis, run func(e solver.Engine, f *ir.Function, sd oracle.Seed)) {
	corpus := benchCorpus(20)
	an := &llvmport.Analyzer{}
	var stats solver.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats = solver.Stats{}
		for _, e := range corpus {
			fa := an.Analyze(e.F)
			_ = fa
			eng := solver.NewEngine(e.F, solver.Config{})
			run(eng, e.F, oracle.ComputeSeed(e.F))
			stats.Add(eng.Stats())
		}
	}
	b.ReportMetric(float64(len(corpus)), "exprs/op")
	b.ReportMetric(float64(stats.GatesBuilt), "gates/op")
	b.ReportMetric(float64(stats.GatesDeduped), "gates-deduped/op")
	b.ReportMetric(float64(stats.Clauses), "clauses/op")
	b.ReportMetric(float64(stats.Pruned), "pruned-queries/op")
	b.ReportMetric(float64(stats.EnumQueries), "enum-queries/op")
	_ = analysis
}

func BenchmarkTable1_KnownBits(b *testing.B) {
	benchTable1(b, harvest.KnownBits, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.KnownBitsSeeded(e, f, sd)
	})
}

func BenchmarkTable1_SignBits(b *testing.B) {
	benchTable1(b, harvest.SignBits, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.SignBitsSeeded(e, f, sd)
	})
}

func BenchmarkTable1_NonZero(b *testing.B) {
	benchTable1(b, harvest.NonZero, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.NonZeroSeeded(e, f, sd)
	})
}

func BenchmarkTable1_Negative(b *testing.B) {
	benchTable1(b, harvest.Negative, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.NegativeSeeded(e, f, sd)
	})
}

func BenchmarkTable1_NonNegative(b *testing.B) {
	benchTable1(b, harvest.NonNegative, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.NonNegativeSeeded(e, f, sd)
	})
}

func BenchmarkTable1_PowerOfTwo(b *testing.B) {
	benchTable1(b, harvest.PowerOfTwo, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.PowerOfTwoSeeded(e, f, sd)
	})
}

func BenchmarkTable1_IntegerRange(b *testing.B) {
	benchTable1(b, harvest.IntegerRange, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.IntegerRangeSeeded(e, f, sd)
	})
}

func BenchmarkTable1_DemandedBits(b *testing.B) {
	benchTable1(b, harvest.DemandedBits, func(e solver.Engine, f *ir.Function, sd oracle.Seed) {
		oracle.DemandedBits(e, f)
	})
}

// benchDupCorpus is a duplication-heavy corpus shaped like the §3.1
// harvest statistics: each unique expression appears as up to ten
// shuffled alpha-variants, per its sampled frequency.
func benchDupCorpus() []harvest.Expr {
	return harvest.DuplicationShaped(harvest.Config{
		Seed:     45,
		NumExprs: 20,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 8, Weight: 3}, {Width: 4, Weight: 1}},
	}, 10)
}

func BenchmarkTable1_FullComparator(b *testing.B) {
	corpus := benchDupCorpus()
	c := &compare.Comparator{Analyzer: &llvmport.Analyzer{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Run(corpus)
	}
	b.ReportMetric(float64(len(corpus)), "exprs/op")
}

// BenchmarkTable1_FullComparator_Cached runs the same corpus with a fresh
// cache per iteration: every alpha-variant of an expression analyzed
// earlier in the run is answered from the cache, so the win is the
// cache's within-run hits (the cross-run win is larger; see _WarmCache).
func BenchmarkTable1_FullComparator_Cached(b *testing.B) {
	corpus := benchDupCorpus()
	c := &compare.Comparator{Analyzer: &llvmport.Analyzer{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cache = rescache.New()
		_ = c.Run(corpus)
	}
	b.ReportMetric(float64(len(corpus)), "exprs/op")
}

// BenchmarkTable1_FullComparator_WarmCache reuses one cache across
// iterations: after the first, every oracle query is a hit — the
// steady-state cost of regenerating Table 1 from a cache file.
func BenchmarkTable1_FullComparator_WarmCache(b *testing.B) {
	corpus := benchDupCorpus()
	c := &compare.Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New()}
	_ = c.Run(corpus) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Run(corpus)
	}
	b.ReportMetric(float64(len(corpus)), "exprs/op")
}

// --- Table 2: one bench per benchmark kernel, baseline and precise ---

func benchTable2Baseline(b *testing.B, idx int) {
	k := opt.Kernels[idx]
	envs := k.Workload(100)
	m := opt.AMD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := k.F()
		optimized := opt.Optimize(f, opt.NewBaselineSource(f))
		if _, _, err := m.RunWorkload(optimized, envs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable2Precise(b *testing.B, idx int) {
	k := opt.Kernels[idx]
	envs := k.Workload(100)
	m := opt.AMD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := k.F()
		optimized := opt.Optimize(f, opt.NewOracleSource(f, 0))
		if _, _, err := m.RunWorkload(optimized, envs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Bzip2Compress_Baseline(b *testing.B) { benchTable2Baseline(b, 0) }
func BenchmarkTable2_Bzip2Compress_Precise(b *testing.B)  { benchTable2Precise(b, 0) }

func BenchmarkTable2_Bzip2Decompress_Baseline(b *testing.B) { benchTable2Baseline(b, 1) }
func BenchmarkTable2_Bzip2Decompress_Precise(b *testing.B)  { benchTable2Precise(b, 1) }

func BenchmarkTable2_GzipCompress_Baseline(b *testing.B) { benchTable2Baseline(b, 2) }
func BenchmarkTable2_GzipCompress_Precise(b *testing.B)  { benchTable2Precise(b, 2) }

func BenchmarkTable2_GzipDecompress_Baseline(b *testing.B) { benchTable2Baseline(b, 3) }
func BenchmarkTable2_GzipDecompress_Precise(b *testing.B)  { benchTable2Precise(b, 3) }

func BenchmarkTable2_Stockfish_Baseline(b *testing.B) { benchTable2Baseline(b, 4) }
func BenchmarkTable2_Stockfish_Precise(b *testing.B)  { benchTable2Precise(b, 4) }

func BenchmarkTable2_SQLite_Baseline(b *testing.B) { benchTable2Baseline(b, 5) }
func BenchmarkTable2_SQLite_Precise(b *testing.B)  { benchTable2Precise(b, 5) }

// --- Figure 2: the known-bits lattice operations ---

func BenchmarkFigure2_KnownBitsLattice(b *testing.B) {
	facts := make([]knownbits.Bits, 64)
	for i := range facts {
		facts[i] = knownbits.Make(apint.New(16, uint64(i*37)&0xF0F0), apint.New(16, uint64(i*53)&0x0F0F))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := knownbits.Unknown(16)
		for _, f := range facts {
			acc = acc.Join(f)
			_ = f.AtLeastAsPreciseAs(acc)
		}
	}
}

// --- §4.7: soundness-bug detection end to end ---

func BenchmarkSoundnessDetection(b *testing.B) {
	trigger := ir.MustParse(harvest.SoundnessTriggers[2].Source) // srem known-bits at i8
	c := &compare.Comparator{Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemKnownBits: true}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		for _, r := range c.CompareExpr(trigger) {
			if r.Outcome == compare.LLVMMorePrecise {
				found = true
			}
		}
		if !found {
			b.Fatal("bug not detected")
		}
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkSATPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		n := 6
		vars := make([][]sat.Var, n+1)
		for p := range vars {
			vars[p] = make([]sat.Var, n)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= n; p++ {
			lits := make([]sat.Lit, n)
			for h := 0; h < n; h++ {
				lits[h] = sat.PosLit(vars[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
				}
			}
		}
		if got := s.Solve(); got != sat.Unsat {
			b.Fatalf("PHP(%d) = %v", n, got)
		}
	}
}

func BenchmarkBitblastMul16(b *testing.B) {
	f := ir.MustParse("%x:i16 = var\n%y:i16 = var\n%0:i16 = mul %x, %y\ninfer %0")
	for i := 0; i < b.N; i++ {
		s := sat.New()
		bl := bitblast.Blast(s, f)
		_ = bl
	}
}

func BenchmarkOracleKnownBits32(b *testing.B) {
	f := ir.MustParse("%x:i32 = var\n%0:i32 = shl 32:i32, %x\ninfer %0")
	for i := 0; i < b.N; i++ {
		res := oracle.KnownBits(solver.NewSAT(f, 0), f)
		if res.Exhausted {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkLLVMPortAnalyze(b *testing.B) {
	corpus := benchCorpus(50)
	var an llvmport.Analyzer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range corpus {
			fa := an.Analyze(e.F)
			_ = fa.KnownBits()
			_ = fa.Range()
			_ = fa.NumSignBits()
			_ = fa.DemandedBits()
		}
	}
}

func BenchmarkEvalInterpreter(b *testing.B) {
	k := opt.Kernels[0]
	f := k.F()
	envs := k.Workload(1)
	env, err := eval.EnvFromNames(f, envs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eval.Eval(f, env); !ok {
			b.Fatal("unexpected UB")
		}
	}
}

func BenchmarkConstRangeTransfers(b *testing.B) {
	x := constrange.New(apint.New(32, 10), apint.New(32, 5000))
	y := constrange.New(apint.New(32, 3), apint.New(32, 77))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
		_ = x.Sub(y)
		_ = x.Mul(y)
		_ = x.UDiv(y)
		_ = x.URem(y)
		_ = x.SRem(y)
		_ = x.And(y)
		_ = x.Or(y)
		_ = x.Shl(y)
		_ = x.LShr(y)
		_ = x.AShr(y)
	}
}

func BenchmarkAPIntOps(b *testing.B) {
	x := apint.New(64, 0xDEADBEEFCAFE1234)
	y := apint.New(64, 0x1234567890ABCDEF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y).Mul(y).Xor(x).RotL(13).NumSignBits()
	}
}

// --- Ablation: hull-seeded Algorithm 3 vs the paper's literal version ---

func BenchmarkAblation_RangeHullSeeded(b *testing.B) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv 128:i8, %x\ninfer %0")
	for i := 0; i < b.N; i++ {
		res := oracle.IntegerRange(solver.NewSAT(f, 0), f)
		if res.Exhausted {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkAblation_RangeNaive(b *testing.B) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv 128:i8, %x\ninfer %0")
	for i := 0; i < b.N; i++ {
		res := oracle.IntegerRangeNaive(solver.NewSAT(f, 0), f)
		if res.Exhausted {
			b.Fatal("exhausted")
		}
	}
}

// --- Ablation: SAT engine vs exhaustive enumeration oracle backend ---

func BenchmarkAblation_KnownBitsSATEngine(b *testing.B) {
	f := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = mul %x, %y\n%1:i8 = and %0, 12:i8\ninfer %1")
	for i := 0; i < b.N; i++ {
		oracle.KnownBits(solver.NewSAT(f, 0), f)
	}
}

func BenchmarkAblation_KnownBitsEnumEngine(b *testing.B) {
	f := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = mul %x, %y\n%1:i8 = and %0, 12:i8\ninfer %1")
	for i := 0; i < b.N; i++ {
		oracle.KnownBits(solver.NewEnum(f), f)
	}
}

// --- Ablation: structural hashing on vs off in the bit-blaster ---

func benchStrashAblation(b *testing.B, noStrash bool) {
	// add is commuted between the two copies: structural hashing
	// canonicalizes them to one adder and the xor rewrite folds the output
	// to constant zero; the unstrashed path keeps both adders and must
	// prove each output bit zero through the carry chains.
	f := ir.MustParse("%x:i32 = var\n%y:i32 = var\n%0:i32 = add %x, %y\n%1:i32 = add %y, %x\n%2:i32 = xor %0, %1\ninfer %2")
	var stats solver.Stats
	for i := 0; i < b.N; i++ {
		e := solver.NewSAT(f, 0)
		e.NoStrash = noStrash
		res := oracle.KnownBits(e, f)
		if res.Exhausted {
			b.Fatal("exhausted")
		}
		stats = e.Stats()
	}
	b.ReportMetric(float64(stats.GatesBuilt), "gates/op")
	b.ReportMetric(float64(stats.GatesDeduped), "gates-deduped/op")
	b.ReportMetric(float64(stats.Clauses), "clauses/op")
}

func BenchmarkAblation_BlastStrash(b *testing.B)   { benchStrashAblation(b, false) }
func BenchmarkAblation_BlastNoStrash(b *testing.B) { benchStrashAblation(b, true) }

// --- Demanded bits on the incremental SAT engine ---

func BenchmarkAblation_DemandedBitsIncremental(b *testing.B) {
	f := ir.MustParse("%x:i16 = var\n%0:i16 = udiv %x, 1000:i16\ninfer %0")
	for i := 0; i < b.N; i++ {
		e := solver.NewSAT(f, 0)
		res := oracle.DemandedBits(e, f)
		if res.Exhausted {
			b.Fatal("exhausted")
		}
	}
}

// --- Classic (LLVM 8) vs Modern compiler under test ---

func BenchmarkCompilerClassic(b *testing.B) {
	corpus := benchCorpus(50)
	an := &llvmport.Analyzer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range corpus {
			fa := an.Analyze(e.F)
			_ = fa.KnownBits()
			_ = fa.Range()
		}
	}
}

// --- Fact-service core: sharded cache vs global mutex, warm pipeline ---

// mutexCache replicates the pre-sharding rescache design — one map, one
// mutex, counters under the same lock — as the in-file baseline for the
// concurrent-lookup comparison. (The real implementation is now sharded;
// this is what it replaced.)
type mutexCache struct {
	mu           sync.Mutex
	entries      map[rescache.Key]rescache.Entry
	hits, misses uint64
}

func (c *mutexCache) Get(k rescache.Key) (rescache.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

func (c *mutexCache) Put(k rescache.Key, e rescache.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[k] = e
}

// benchCacheKeys is a shared key set for the cache benchmarks: distinct
// canonical-source strings of realistic length.
func benchCacheKeys(n int) []rescache.Key {
	keys := make([]rescache.Key, n)
	for i := range keys {
		keys[i] = rescache.Key{
			Expr:     fmt.Sprintf("%%x:i8 = var\n%%0:i8 = and %d:i8, %%x\n%%1:i8 = add %%x, %%0\ninfer %%1", i),
			Analysis: "known bits",
		}
	}
	return keys
}

// benchCacheParallel drives the warm concurrent-lookup workload (95% Get,
// 5% Put, 8x oversubscribed goroutines) against either cache. This is the
// fact-service steady state: many readers racing over memoized results
// with an occasional writer installing a new one.
func benchCacheParallel(b *testing.B, get func(rescache.Key) (rescache.Entry, bool), put func(rescache.Key, rescache.Entry)) {
	keys := benchCacheKeys(1024)
	ent := rescache.Entry{Value: `{"bits":"0000xxxx"}`}
	for _, k := range keys {
		put(k, ent)
	}
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			if i%20 == 19 {
				put(k, ent)
			} else if _, ok := get(k); !ok {
				b.Fatal("warm key missing")
			}
			i++
		}
	})
}

func BenchmarkRescacheConcurrentMutex(b *testing.B) {
	c := &mutexCache{entries: make(map[rescache.Key]rescache.Entry)}
	benchCacheParallel(b, c.Get, c.Put)
}

func BenchmarkRescacheConcurrentSharded(b *testing.B) {
	c := rescache.New()
	benchCacheParallel(b, c.Get, c.Put)
}

// BenchmarkFactServiceWarm measures the query path at steady state:
// admission → solve slot → OracleFacts answered by the cache, with 8x
// oversubscribed clients racing over 8 pre-warmed expressions.
func BenchmarkFactServiceWarm(b *testing.B) {
	c := &compare.Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 8, Cache: rescache.New()}
	svc, err := c.NewFactService(factsvc.Config{Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	exprs := make([]*ir.Function, 8)
	for i := range exprs {
		exprs[i] = ir.MustParse(fmt.Sprintf("%%x:i8 = var\n%%0:i8 = and %d:i8, %%x\ninfer %%0", i+1))
		if _, err := svc.Query(ctx, exprs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f := exprs[i%len(exprs)]
			i++
			for {
				_, err := svc.Query(ctx, f)
				if err == factsvc.ErrSaturated {
					runtime.Gosched() // backpressure: retry like a polite client
					continue
				}
				if err != nil {
					b.Fatal(err)
				}
				break
			}
		}
	})
}

func BenchmarkCompilerModern(b *testing.B) {
	corpus := benchCorpus(50)
	an := &llvmport.Analyzer{Modern: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range corpus {
			fa := an.Analyze(e.F)
			_ = fa.KnownBits()
			_ = fa.Range()
		}
	}
}
