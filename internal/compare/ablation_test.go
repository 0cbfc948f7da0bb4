package compare

import (
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
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
