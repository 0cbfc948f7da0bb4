package compare

import (
	"context"
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/nway"
	"dfcheck/internal/reduce"
	"dfcheck/internal/rescache"
)

func analyzerWithBug(bug int) *llvmport.Analyzer {
	an := &llvmport.Analyzer{}
	switch bug {
	case 1:
		an.Bugs.NonZeroAdd = true
	case 2:
		an.Bugs.SRemSignBits = true
	case 3:
		an.Bugs.SRemKnownBits = true
	}
	return an
}

// TestNWayReducesOracleInvocations is the pre-filter's whole point: on a
// clean compiler the variants agree almost everywhere, so the SAT oracle
// runs on strictly fewer expressions than it does without -nway — and
// never produces a finding the plain comparison would not.
func TestNWayReducesOracleInvocations(t *testing.T) {
	corpus := ablationCorpus()

	plain := metrics.NewRegistry()
	prep := (&Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, Metrics: plain}).Run(corpus)
	if len(prep.Findings) != 0 {
		t.Fatalf("clean baseline produced %d findings", len(prep.Findings))
	}

	nw := metrics.NewRegistry()
	nrep := (&Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, Metrics: nw, NWay: true}).Run(corpus)
	if len(nrep.Findings) != 0 {
		t.Fatalf("clean n-way run produced %d findings", len(nrep.Findings))
	}

	if nrep.NWay == nil {
		t.Fatal("n-way run reported no NWay stats")
	}
	st := nrep.NWay
	if st.Exprs != len(corpus) {
		t.Errorf("NWay.Exprs = %d, want %d", st.Exprs, len(corpus))
	}
	if st.Agreed+st.Escalated+st.Dead != st.Exprs {
		t.Errorf("NWay partition does not add up: %+v", *st)
	}
	if st.Agreed == 0 {
		t.Errorf("pre-filter never agreed on a clean corpus: %+v", *st)
	}
	if st.Escalated >= st.Comparisons {
		t.Errorf("escalations (%d) not below comparisons (%d)", st.Escalated, st.Comparisons)
	}

	pq := plain.Counter("solver_queries").Value()
	nq := nw.Counter("solver_queries").Value()
	if nq >= pq {
		t.Errorf("solver_queries with n-way = %d, without = %d; want a reduction", nq, pq)
	}
	pe := plain.Counter("exprs_compared").Value()
	ne := nw.Counter("exprs_compared").Value()
	if ne >= pe {
		t.Errorf("exprs_compared with n-way = %d, without = %d; want a reduction", ne, pe)
	}
	if ne != int64(st.Escalated) {
		t.Errorf("oracle ran on %d expressions but %d escalated", ne, st.Escalated)
	}
	if got := nw.Counter("nway_escalations").Value(); got != int64(st.Escalated) {
		t.Errorf("nway_escalations counter = %d, report says %d", got, st.Escalated)
	}
}

// TestNWaySeededBugFindings runs each §4.7 trigger under its bug with
// -nway: bugs 1 and 3 (small input spaces) must surface as solver-free
// variant contradictions, and bug 2 (32-bit input space) must escalate
// and be caught by the oracle as a plain soundness finding.
func TestNWaySeededBugFindings(t *testing.T) {
	for _, tr := range harvest.SoundnessTriggers {
		corpus := []harvest.Expr{{Name: "trigger-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1}}
		c := &Comparator{Analyzer: analyzerWithBug(tr.Bug), Workers: 1, NWay: true}
		rep := c.Run(corpus)
		if rep.NWay == nil || rep.NWay.Escalated == 0 {
			t.Errorf("%s: seeded bug did not escalate: %+v", tr.Name, rep.NWay)
			continue
		}
		wantKind := FindingVariant
		if tr.Bug == 2 {
			wantKind = FindingSoundness
		}
		found := false
		for _, f := range rep.Findings {
			if f.Kind == wantKind && f.Result.Analysis == tr.Analysis {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s finding for %s in %d findings", tr.Name, wantKind, tr.Analysis, len(rep.Findings))
		}
	}
}

// TestNWayContradictionsCountFindings: the contradictions figure counts
// only contradictions that become findings. The input, from a clean
// -nway campaign (seed 5, batch 92), has contradicting variants but no
// well-defined input (every shift amount is at least 47), so the gate
// drops them and the run reports none.
func TestNWayContradictionsCountFindings(t *testing.T) {
	f := ir.MustParse("%v0:i8 = var (range=[47,-77))\n%v1:i8 = var\n%0:i8 = or %v0, %v1\n%1:i8 = shl %0, %0\ninfer %1")
	if cmp := nway.Compare(f, nway.Variants(&llvmport.Analyzer{})); len(cmp.Contradictions) == 0 {
		t.Fatal("the input no longer has contradicting variants; pick another")
	}
	rep := (&Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, NWay: true}).Run([]harvest.Expr{{Name: "dead-shl", F: f, Freq: 1}})
	if len(rep.Findings) != 0 || rep.NWay == nil || rep.NWay.Contradictions != 0 {
		t.Fatalf("%d findings, n-way stats %+v; want no findings and 0 contradictions", len(rep.Findings), rep.NWay)
	}
}

// TestNWayCachedParity: a run with the cache must produce the same
// report — rows, findings, and NWay totals — as one without it.
func TestNWayCachedParity(t *testing.T) {
	corpus := ablationCorpus()
	for _, tr := range harvest.SoundnessTriggers {
		corpus = append(corpus, harvest.Expr{Name: "trigger-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1})
	}
	bugs := llvmport.BugConfig{NonZeroAdd: true, SRemSignBits: true, SRemKnownBits: true}
	plain := (&Comparator{Analyzer: &llvmport.Analyzer{Bugs: bugs}, Workers: 1, NWay: true}).Run(corpus)
	cached := (&Comparator{Analyzer: &llvmport.Analyzer{Bugs: bugs}, Workers: 1, NWay: true, Cache: rescache.New()}).Run(corpus)
	compareReports(t, "nway-cached", cached, plain)
	if plain.NWay == nil || cached.NWay == nil {
		t.Fatalf("missing NWay stats: plain %v, cached %v", plain.NWay, cached.NWay)
	}
	if *plain.NWay != *cached.NWay {
		t.Errorf("NWay totals differ:\nuncached: %+v\ncached:   %+v", *plain.NWay, *cached.NWay)
	}
	if len(plain.Findings) == 0 {
		t.Fatal("bugged n-way run produced no findings")
	}
}

// TestReducedFindingsAreOneMinimal is the reducer's acceptance contract:
// every seeded-bug finding carries a reduced source that still triggers
// the same finding kind and cannot be shrunk by any further single step.
func TestReducedFindingsAreOneMinimal(t *testing.T) {
	for _, tr := range harvest.SoundnessTriggers {
		corpus := []harvest.Expr{{Name: "trigger-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1}}
		c := &Comparator{Analyzer: analyzerWithBug(tr.Bug), Workers: 1, NWay: true, Reduce: true}
		rep := c.Run(corpus)
		if len(rep.Findings) == 0 {
			t.Errorf("%s: no findings to reduce", tr.Name)
			continue
		}
		for _, fd := range rep.Findings {
			if fd.Reduced == "" {
				t.Errorf("%s: finding %s/%s has no reduced source", tr.Name, fd.Kind, fd.Result.Analysis)
				continue
			}
			g, err := ir.Parse(fd.Reduced)
			if err != nil {
				t.Errorf("%s: reduced source does not re-parse: %v\n%s", tr.Name, err, fd.Reduced)
				continue
			}
			prop := c.FindingProperty(context.Background(), fd)
			if !prop(g) {
				t.Errorf("%s: reduced expression lost the finding:\n%s", tr.Name, fd.Reduced)
				continue
			}
			if again := reduce.Reduce(g, prop); again.Steps != 0 {
				t.Errorf("%s: reduced expression shrank further by %d steps:\n%s\n->\n%s",
					tr.Name, again.Steps, fd.Reduced, again.F)
			}
		}
	}
}
