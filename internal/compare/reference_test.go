package compare

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
	"dfcheck/internal/rescache"
	"dfcheck/internal/solver"
	"dfcheck/internal/trace"
)

func ablationCorpus() []harvest.Expr {
	return harvest.Generate(harvest.Config{
		Seed:     77,
		NumExprs: 40,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 3}},
	})
}

// compareReports asserts two comparator runs reached identical Table-1
// outcomes and identical findings on the same corpus.
func compareReports(t *testing.T, label string, fast, slow *Report) {
	t.Helper()
	for _, a := range harvest.AllAnalyses {
		fr, sr := fast.Rows[a], slow.Rows[a]
		if fr.Same != sr.Same || fr.OracleMP != sr.OracleMP || fr.LLVMMP != sr.LLVMMP || fr.Exhausted != sr.Exhausted {
			t.Errorf("%s: %s row differs: fast %+v, historical %+v", label, a, *fr, *sr)
		}
	}
	if len(fast.Findings) != len(slow.Findings) {
		t.Fatalf("%s: finding counts differ: fast %d, historical %d", label, len(fast.Findings), len(slow.Findings))
	}
	for i := range fast.Findings {
		if fast.Findings[i].String() != slow.Findings[i].String() {
			t.Errorf("%s: finding %d differs:\nfast:       %s\nhistorical: %s",
				label, i, fast.Findings[i], slow.Findings[i])
		}
	}
}

// precisionTableCorpus is the corpus precision-table builds from
// -n n -max-insts maxInsts -max-width maxWidth at its default seed,
// paper fragments included.
func precisionTableCorpus(n, maxInsts int, maxWidth uint) []harvest.Expr {
	widths := []harvest.WidthWeight{{Width: 4, Weight: 10}, {Width: 8, Weight: 45}}
	if maxWidth >= 13 {
		widths = append(widths, harvest.WidthWeight{Width: 13, Weight: 15})
	}
	if maxWidth >= 16 {
		widths = append(widths, harvest.WidthWeight{Width: 16, Weight: 30})
	}
	corpus := harvest.Generate(harvest.Config{
		Seed:         2020,
		NumExprs:     n,
		MaxInsts:     maxInsts,
		Widths:       widths,
		MaxCastWidth: maxWidth,
	})
	for _, fr := range harvest.PaperFragments {
		corpus = append(corpus, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF(), Freq: 1})
	}
	return corpus
}

// satSeeded keeps the seed and drops the fast paths NewEngine routes
// to: enumeration, the demanded-bits sweep and sampler, and the range
// certificate. It is the oracle the comparator ran at -enum-cutoff -1.
func satSeeded(f *ir.Function) oracle.All {
	return oracle.AnalyzeAllWith(solver.NewSAT(f, 0), f, oracle.ComputeSeed(f))
}

// satBare is the paper's Algorithms 1–3 alone, with neither the seed nor
// structural hashing: the oracle the comparator ran at -no-seed
// -no-strash -enum-cutoff -1.
func satBare(f *ir.Function) oracle.All {
	e := solver.NewSAT(f, 0)
	e.NoStrash = true
	return oracle.AnalyzeAllWith(e, f, oracle.Seed{})
}

// referenceOracles are the configurations the production oracle is
// checked against.
var referenceOracles = []struct {
	name string
	run  func(f *ir.Function) oracle.All
}{
	{"NewSAT seeded", satSeeded},
	{"NewSAT unseeded, no strash", satBare},
}

// referenceReport is the Table-1 report the comparator gives on corpus
// with an's facts when its oracle facts come from run.
func referenceReport(an *llvmport.Analyzer, corpus []harvest.Expr, run func(*ir.Function) oracle.All) *Report {
	c := &Comparator{Analyzer: an}
	rep := NewReport()
	for _, e := range corpus {
		a := run(e.F)
		o := &oracleSet{Known: a.Known, Sign: a.Sign, NonZero: a.NonZero, Negative: a.Negative,
			NonNeg: a.NonNegative, Pow2: a.PowerOfTwo, Range: a.Range, Demanded: a.Demanded}
		rep.absorb(e, c.classify(e.F, an.Analyze(e.F), o))
	}
	return rep
}

// productionOracle runs f through the comparator's oracle at the CLIs'
// defaults and returns its facts in AnalyzeAllWith's form.
func productionOracle(f *ir.Function) oracle.All {
	o := (&Comparator{Analyzer: &llvmport.Analyzer{}, ExprTimeout: 5 * time.Minute}).oracleFor(context.Background(), f)
	return oracle.All{Known: o.Known, Sign: o.Sign, NonZero: o.NonZero, Negative: o.Negative,
		NonNegative: o.NonNeg, PowerOfTwo: o.Pow2, Range: o.Range, Demanded: o.Demanded}
}

// factDiffs lists the facts of got that differ from want's. A fact
// exhausted on either side is not compared, and an integer range is
// compared by size, since several minimal windows can tie. compared
// counts the facts that were.
func factDiffs(f *ir.Function, got, want oracle.All) (diffs []string, compared int) {
	same := func(name string, g, w oracle.Outcome, eq bool, gs, ws any) {
		if g.Exhausted || w.Exhausted {
			return
		}
		compared++
		if g.Feasible != w.Feasible || !eq {
			diffs = append(diffs, fmt.Sprintf("%s: %v (feasible %t), reference %v (feasible %t)", name, gs, g.Feasible, ws, w.Feasible))
		}
	}
	same("known bits", got.Known.Outcome, want.Known.Outcome, got.Known.Bits.Eq(want.Known.Bits), got.Known.Bits, want.Known.Bits)
	same("sign bits", got.Sign.Outcome, want.Sign.Outcome, got.Sign.NumSignBits == want.Sign.NumSignBits, got.Sign.NumSignBits, want.Sign.NumSignBits)
	for _, p := range []struct {
		name      string
		got, want oracle.BoolResult
	}{
		{"non-zero", got.NonZero, want.NonZero},
		{"negative", got.Negative, want.Negative},
		{"non-negative", got.NonNegative, want.NonNegative},
		{"power of two", got.PowerOfTwo, want.PowerOfTwo},
	} {
		same(p.name, p.got.Outcome, p.want.Outcome, p.got.Proved == p.want.Proved, p.got.Proved, p.want.Proved)
	}
	gs, ghuge := got.Range.Range.Size()
	ws, whuge := want.Range.Range.Size()
	same("integer range", got.Range.Outcome, want.Range.Outcome, gs == ws && ghuge == whuge, got.Range.Range, want.Range.Range)
	for _, v := range f.Vars {
		g, w := got.Demanded.Demanded[v.Name], want.Demanded.Demanded[v.Name]
		same("demanded bits of %"+v.Name, got.Demanded.Outcome, want.Demanded.Outcome, g.Eq(w), g.BitString(), w.BitString())
	}
	return diffs, compared
}

// TestOracleMatchesReferenceEngines is the check on the oracle's one
// configuration. Sound-fact seeding, structural hashing, and routing to
// enumeration, the demanded-bits sweep and sampler and the range
// certificate only skip work, so expression by expression the production
// oracle must give the facts of both reference configurations. The
// corpora are precision-table's at -n 120, the table1 corpus, and at
// -n 60 -max-insts 4 -max-width 8, where 17 generated expressions have 16
// input bits and 10 more, and §4.7's soundness-bug triggers, whose facts
// decide the seeded bugs' findings. The jobs, slowest configuration
// first, run on one worker per CPU.
func TestOracleMatchesReferenceEngines(t *testing.T) {
	corpus := append(precisionTableCorpus(120, 8, 16), precisionTableCorpus(60, 4, 8)...)
	for _, tr := range harvest.SoundnessTriggers {
		corpus = append(corpus, harvest.Expr{Name: "trigger-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1})
	}
	runs := make([][]oracle.All, len(corpus))
	type job struct{ expr, config int } // config 0 is production, i is referenceOracles[i-1]
	jobs := make(chan job, len(corpus)*(1+len(referenceOracles)))
	for config := len(referenceOracles); config >= 0; config-- {
		for i := range corpus {
			jobs <- job{i, config}
		}
	}
	close(jobs)
	for i := range runs {
		runs[i] = make([]oracle.All, 1+len(referenceOracles))
	}
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				f := corpus[j.expr].F
				if j.config == 0 {
					runs[j.expr][0] = productionOracle(f)
				} else {
					runs[j.expr][j.config] = referenceOracles[j.config-1].run(f)
				}
			}
		}()
	}
	wg.Wait()

	compared, total := 0, 0
	for i, e := range corpus {
		for r, ref := range referenceOracles {
			diffs, n := factDiffs(e.F, runs[i][0], runs[i][r+1])
			for _, d := range diffs {
				t.Errorf("%s against %s: %s\n%s", e.Name, ref.name, d, e.F)
			}
			compared += n
			total += 7 + len(e.F.Vars)
		}
	}
	t.Logf("%d expressions: %d of %d facts compared, the rest exhausted", len(corpus), compared, total)
}

// TestAblationFlagsPreserveResults: the fast paths that -no-seed,
// -no-strash and -enum-cutoff -1 once switched off (sound-fact seeding,
// structural hashing, and routing to enumeration, the demanded-bits
// sweep and sampler and the range certificate) must not change a single
// Table-1 outcome against the historical configuration with all of them
// off, satBare.
func TestAblationFlagsPreserveResults(t *testing.T) {
	an := &llvmport.Analyzer{}
	corpus := ablationCorpus()
	fast := (&Comparator{Analyzer: an, Workers: 1}).Run(corpus)
	slow := referenceReport(an, corpus, satBare)
	compareReports(t, "clean", fast, slow)
	if len(fast.Findings) != 0 {
		t.Errorf("clean compiler produced %d findings", len(fast.Findings))
	}
}

// TestSATRoutingMatchesEnumRouting compares the comparator's default
// routing with every expression bit-blasted and solved (satSeeded): the
// SAT engine, demanded-bits miters included, must reach the same Table-1
// outcomes and findings. By default the corpus's 30 expressions of at
// most 9 input bits are enumerated, and the SAT engine gets its 6 of 16
// bits with the demanded-bits sweep and its 4 of 24 bits with the
// sampler, so those 10 check the sweep and sampler against miters. The corpus
// solves well inside the default budget (asserted via Exhausted == 0),
// so any difference is a wrong answer, not a budget edge.
func TestSATRoutingMatchesEnumRouting(t *testing.T) {
	an := &llvmport.Analyzer{}
	corpus := ablationCorpus()
	viaSAT := referenceReport(an, corpus, satSeeded)
	viaEnum := (&Comparator{Analyzer: an, Workers: 1}).Run(corpus)
	compareReports(t, "sat-vs-enum", viaSAT, viaEnum)
	for _, a := range harvest.AllAnalyses {
		if n := viaSAT.Rows[a].Exhausted; n != 0 {
			t.Fatalf("%s: %d expressions exhausted; the equivalence corpus must stay off budget edges", a, n)
		}
	}
}

// TestAblationFlagsPreserveBugDetection re-runs the comparison with the
// three soundness bugs of §4.7 injected: the fast paths must catch
// exactly the soundness findings the historical configuration catches.
func TestAblationFlagsPreserveBugDetection(t *testing.T) {
	corpus := ablationCorpus()
	for _, tr := range harvest.SoundnessTriggers {
		corpus = append(corpus, harvest.Expr{Name: "trigger-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1})
	}
	an := &llvmport.Analyzer{Bugs: llvmport.BugConfig{NonZeroAdd: true, SRemSignBits: true, SRemKnownBits: true}}
	fast := (&Comparator{Analyzer: an, Workers: 1}).Run(corpus)
	slow := referenceReport(an, corpus, satBare)
	compareReports(t, "bugged", fast, slow)
	if len(fast.Findings) == 0 {
		t.Fatal("injected bugs produced no findings")
	}
}

// TestDemandedBitsSeedPrunesOnlyWhenSeeded counts the demanded-bits
// queries on both comparator paths, uncached and cached. "rotl %x, %s"
// at i8 takes %s modulo 8, so the seed proves the top five bits of %s
// undemanded and the comparator asks 11 of the 16 bit queries. On the
// engine the comparator builds for it, the unseeded algorithm asks all
// 16 and prunes none.
func TestDemandedBitsSeedPrunesOnlyWhenSeeded(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%s:i8 = var\n%0:i8 = rotl %x, %s\ninfer %0")
	bitMatters := func(spans []map[string]any) int {
		n := 0
		for _, ev := range spans {
			if ev["cat"] == "query" && ev["name"] == "bit-matters" {
				n++
			}
		}
		return n
	}
	for _, cached := range []bool{false, true} {
		c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1}
		if cached {
			c.Cache = rescache.New()
		}
		if n := bitMatters(traceSpans(t, c, []harvest.Expr{{Name: "rotl", F: f, Freq: 1}})); n != 11 {
			t.Errorf("seeded, cached=%t: %d bit-matters queries, want 11", cached, n)
		}
	}
	var buf bytes.Buffer
	tr := trace.New(&buf)
	sp := tr.Start(nil, trace.KindAnalysis, string(harvest.DemandedBits))
	eng := solver.NewEngine(f, solver.Config{})
	eng.SetTraceSpan(sp)
	oracle.DemandedBitsSeeded(eng, f, oracle.Seed{})
	sp.End()
	if n := bitMatters(spansIn(t, tr, &buf)); n != 16 {
		t.Errorf("unseeded: %d bit-matters queries, want 16", n)
	}
	if p := eng.Stats().Pruned; p != 0 {
		t.Errorf("unseeded: %d queries pruned, want 0", p)
	}
}
