package compare

import (
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/rescache"
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

// TestAblationFlagsPreserveResults is the PR's contract: the fast paths
// (structural hashing, sound-fact seeding, the enumeration cutoff) must
// not change a single Table-1 outcome compared to the historical
// configuration with all three disabled.
func TestAblationFlagsPreserveResults(t *testing.T) {
	corpus := ablationCorpus()
	fast := (&Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1}).Run(corpus)
	slow := (&Comparator{
		Analyzer:   &llvmport.Analyzer{},
		Workers:    1,
		NoStrash:   true,
		NoSeed:     true,
		EnumCutoff: -1,
	}).Run(corpus)
	compareReports(t, "clean", fast, slow)
	if len(fast.Findings) != 0 {
		t.Errorf("clean compiler produced %d findings", len(fast.Findings))
	}
}

// TestSATRoutingMatchesEnumRouting runs the corpus once with every
// expression bit-blasted and solved (EnumCutoff -1) and once with the
// default routing, which enumerates all of it at these widths: the SAT
// engine, demanded-bits miters included, must reach the enumeration
// engine's Table-1 outcomes and findings. The corpus solves well inside
// the default budget (asserted via Exhausted == 0), so any difference is
// a wrong answer, not a budget edge.
func TestSATRoutingMatchesEnumRouting(t *testing.T) {
	corpus := ablationCorpus()
	viaSAT := (&Comparator{
		Analyzer:   &llvmport.Analyzer{},
		Workers:    1,
		EnumCutoff: -1,
	}).Run(corpus)
	viaEnum := (&Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1}).Run(corpus)
	compareReports(t, "sat-vs-enum", viaSAT, viaEnum)
	for _, a := range harvest.AllAnalyses {
		if n := viaSAT.Rows[a].Exhausted; n != 0 {
			t.Fatalf("%s: %d expressions exhausted; the equivalence corpus must stay off budget edges", a, n)
		}
	}
}

// TestAblationFlagsPreserveBugDetection re-runs the comparison with the
// PR12541 bug injected (§4.7): the fast paths must catch exactly the
// soundness findings the historical paths catch.
func TestAblationFlagsPreserveBugDetection(t *testing.T) {
	corpus := ablationCorpus()
	for _, tr := range harvest.SoundnessTriggers {
		corpus = append(corpus, harvest.Expr{Name: "trigger-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1})
	}
	bugs := llvmport.BugConfig{NonZeroAdd: true, SRemSignBits: true, SRemKnownBits: true}
	fast := (&Comparator{Analyzer: &llvmport.Analyzer{Bugs: bugs}, Workers: 1}).Run(corpus)
	slow := (&Comparator{
		Analyzer:   &llvmport.Analyzer{Bugs: bugs},
		Workers:    1,
		NoStrash:   true,
		NoSeed:     true,
		EnumCutoff: -1,
	}).Run(corpus)
	compareReports(t, "bugged", fast, slow)
	if len(fast.Findings) == 0 {
		t.Fatal("injected bugs produced no findings")
	}
}

// TestDemandedBitsSeedPrunesOnlyWhenSeeded counts the demanded-bits miter
// queries on both comparator paths, uncached and cached. "rotl %x, %s" at
// i8 takes %s modulo 8, so the seed proves the top five bits of %s
// undemanded: the seeded comparator asks 11 of the 16 bit queries, and
// under -no-seed it asks all 16, pruning none.
func TestDemandedBitsSeedPrunesOnlyWhenSeeded(t *testing.T) {
	corpus := []harvest.Expr{{Name: "rotl", F: ir.MustParse("%x:i8 = var\n%s:i8 = var\n%0:i8 = rotl %x, %s\ninfer %0"), Freq: 1}}
	for _, tc := range []struct {
		noSeed, cached bool
		want           int
	}{{false, false, 11}, {false, true, 11}, {true, false, 16}, {true, true, 16}} {
		c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, NoSeed: tc.noSeed, EnumCutoff: -1}
		if tc.cached {
			c.Cache = rescache.New()
		}
		n := 0
		for _, ev := range traceSpans(t, c, corpus) {
			if ev["cat"] == "query" && ev["name"] == "bit-matters" {
				n++
			}
		}
		if n != tc.want {
			t.Errorf("no-seed=%t cached=%t: %d bit-matters queries, want %d", tc.noSeed, tc.cached, n, tc.want)
		}
	}
}
