package compare

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
	"dfcheck/internal/rescache"
	"dfcheck/internal/solver"
)

func cleanComparator() *Comparator {
	return &Comparator{Analyzer: &llvmport.Analyzer{}}
}

func resultFor(t *testing.T, results []Result, a harvest.Analysis) Result {
	t.Helper()
	for _, r := range results {
		if r.Analysis == a {
			return r
		}
	}
	t.Fatalf("no result for %s", a)
	return Result{}
}

// TestPaperFragmentsClassified: every §4.2–4.5 fragment must classify as
// "oracle more precise" for its analysis, with both facts matching the
// paper's reported strings.
func TestPaperFragmentsClassified(t *testing.T) {
	c := cleanComparator()
	for _, fr := range harvest.PaperFragments {
		results := c.CompareExpr(fr.TestF())
		r := resultFor(t, results, fr.Analysis)
		if fr.Analysis == harvest.PowerOfTwo {
			// The paper prints yes/no; the comparator prints true/false.
			want := map[string]string{"yes": "true", "no": "false"}
			if r.OracleFact != want[fr.Precise] || r.LLVMFact != want[fr.LLVM] {
				t.Errorf("%s: facts = (%s, %s), paper says (%s, %s)",
					fr.Name, r.OracleFact, r.LLVMFact, fr.Precise, fr.LLVM)
			}
		} else {
			if r.OracleFact != fr.Precise {
				t.Errorf("%s: oracle fact = %s, paper says %s", fr.Name, r.OracleFact, fr.Precise)
			}
			if r.LLVMFact != fr.LLVM {
				t.Errorf("%s: llvm fact = %s, paper says %s", fr.Name, r.LLVMFact, fr.LLVM)
			}
		}
		if r.Outcome != OracleMorePrecise && r.Outcome != ResourceExhausted {
			t.Errorf("%s: outcome = %v, want oracle more precise", fr.Name, r.Outcome)
		}
		if r.Outcome == ResourceExhausted && fr.Analysis != harvest.IntegerRange {
			t.Errorf("%s: unexpected exhaustion", fr.Name)
		}
	}
}

// TestNoFalseSoundnessAlarms: the clean (fixed) compiler must never be
// classified as "LLVM more precise" over a generated corpus — the paper
// found no soundness bugs in LLVM 8 (§4.1).
func TestNoFalseSoundnessAlarms(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed:     99,
		NumExprs: 60,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 3}},
	})
	rep := cleanComparator().Run(corpus)
	if len(rep.Findings) != 0 {
		msgs := make([]string, 0, len(rep.Findings))
		for _, f := range rep.Findings {
			msgs = append(msgs, f.String())
		}
		t.Fatalf("clean compiler flagged unsound %d times:\n%s",
			len(rep.Findings), strings.Join(msgs, "\n"))
	}
	for _, a := range harvest.AllAnalyses {
		if rep.Rows[a].Total() == 0 {
			t.Errorf("no comparisons recorded for %s", a)
		}
	}
}

// TestInjectedBugsDetected: §4.7 — each re-introduced historical bug must
// be caught on its trigger expression, with the paper's facts.
func TestInjectedBugsDetected(t *testing.T) {
	for _, tr := range harvest.SoundnessTriggers {
		var bugs llvmport.BugConfig
		switch tr.Bug {
		case 1:
			bugs.NonZeroAdd = true
		case 2:
			bugs.SRemSignBits = true
		case 3:
			bugs.SRemKnownBits = true
		}
		c := &Comparator{Analyzer: &llvmport.Analyzer{Bugs: bugs}}
		results := c.CompareExpr(ir.MustParse(tr.Source))
		r := resultFor(t, results, tr.Analysis)
		if r.Outcome != LLVMMorePrecise {
			t.Errorf("bug %d (%s): outcome = %v, want llvm more precise", tr.Bug, tr.Name, r.Outcome)
		}
		if r.OracleFact != tr.OracleFact {
			t.Errorf("bug %d: oracle fact = %s, paper says %s", tr.Bug, r.OracleFact, tr.OracleFact)
		}
		if r.LLVMFact != tr.BuggyLLVMFact {
			t.Errorf("bug %d: llvm fact = %s, paper says %s", tr.Bug, r.LLVMFact, tr.BuggyLLVMFact)
		}

		// The clean compiler must NOT be flagged on the same trigger.
		clean := cleanComparator().CompareExpr(ir.MustParse(tr.Source))
		rc := resultFor(t, clean, tr.Analysis)
		if rc.Outcome == LLVMMorePrecise {
			t.Errorf("bug %d: clean compiler flagged unsound", tr.Bug)
		}
	}
}

// TestInjectedBugsCaughtByCorpusSweep: like the paper's workflow, a
// corpus sweep with a buggy compiler should surface at least one finding
// when the corpus includes the trigger.
func TestInjectedBugsCaughtByCorpusSweep(t *testing.T) {
	corpus := []harvest.Expr{
		{Name: "trigger-bug2", F: ir.MustParse(harvest.SoundnessTriggers[1].Source), Freq: 1},
		{Name: "benign", F: ir.MustParse("%x:i8 = var\n%0:i8 = add %x, 1:i8\ninfer %0"), Freq: 3},
	}
	c := &Comparator{Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}}}
	rep := c.Run(corpus)
	if len(rep.Findings) == 0 {
		t.Fatal("corpus sweep missed the injected bug")
	}
	found := false
	for _, f := range rep.Findings {
		if f.ExprName == "trigger-bug2" && f.Result.Analysis == harvest.SignBits {
			found = true
			if !strings.Contains(f.String(), "llvm is stronger") {
				t.Errorf("finding not in paper format:\n%s", f)
			}
		}
	}
	if !found {
		t.Error("finding does not identify the trigger expression")
	}
	if rep.Rows[harvest.SignBits].LLVMMP == 0 {
		t.Error("table row does not count the soundness finding")
	}
}

// TestNoFalseSoundnessAlarmsOddWidth repeats the clean-compiler sweep at
// an odd bit width (13), where masking and boundary bugs like to hide.
func TestNoFalseSoundnessAlarmsOddWidth(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed:         123,
		NumExprs:     25,
		MaxInsts:     4,
		Widths:       []harvest.WidthWeight{{Width: 13, Weight: 1}},
		MaxCastWidth: 16,
	})
	rep := cleanComparator().Run(corpus)
	for _, f := range rep.Findings {
		t.Errorf("clean compiler flagged unsound at width 13:\n%s", f)
	}
}

func TestDemandedBitsCountedPerVariable(t *testing.T) {
	// An expression with two inputs contributes two demanded-bits
	// comparisons (the paper counts 2.1M variables over 269k exprs).
	f := ir.MustParse("%a:i4 = var\n%b:i4 = var\n%0:i4 = add %a, %b\ninfer %0")
	results := cleanComparator().CompareExpr(f)
	n := 0
	for _, r := range results {
		if r.Analysis == harvest.DemandedBits {
			n++
			if r.Var == "" {
				t.Error("demanded-bits result missing variable name")
			}
		}
	}
	if n != 2 {
		t.Errorf("demanded-bits comparisons = %d, want 2", n)
	}
}

func TestTableRendering(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed: 5, NumExprs: 10, MaxInsts: 4,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 1}},
	})
	rep := cleanComparator().Run(corpus)
	table := rep.Table()
	for _, a := range harvest.AllAnalyses {
		if !strings.Contains(table, string(a)) {
			t.Errorf("table missing row for %s:\n%s", a, table)
		}
	}
	if !strings.Contains(table, "%") {
		t.Error("table missing percentages")
	}
}

func TestOutcomeStrings(t *testing.T) {
	cases := map[Outcome]string{
		Same:              "same precision",
		OracleMorePrecise: "souper is more precise",
		LLVMMorePrecise:   "llvm is stronger",
		ResourceExhausted: "resource exhaustion",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestReportJSON(t *testing.T) {
	corpus := []harvest.Expr{
		{Name: "t", F: ir.MustParse(harvest.SoundnessTriggers[1].Source), Freq: 1},
	}
	c := &Comparator{Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}}}
	rep := c.Run(corpus)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Rows []struct {
			Analysis string `json:"analysis"`
			LLVMMP   int    `json:"llvm_more_precise"`
		} `json:"rows"`
		Findings []struct {
			Analysis   string `json:"analysis"`
			OracleFact string `json:"oracle_fact"`
			LLVMFact   string `json:"llvm_fact"`
		} `json:"soundness_findings"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if len(decoded.Findings) == 0 {
		t.Fatalf("no findings in JSON:\n%s", data)
	}
	if decoded.Findings[0].Analysis != "sign bits" ||
		decoded.Findings[0].OracleFact != "30" || decoded.Findings[0].LLVMFact != "31" {
		t.Errorf("finding = %+v", decoded.Findings[0])
	}
	foundRow := false
	for _, r := range decoded.Rows {
		if r.Analysis == "sign bits" && r.LLVMMP == 1 {
			foundRow = true
		}
	}
	if !foundRow {
		t.Errorf("sign-bits row missing soundness count:\n%s", data)
	}
}

func TestParallelRunMatchesSequential(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed: 321, NumExprs: 24, MaxInsts: 4,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 1}},
	})
	seq := cleanComparator().Run(corpus)
	par := (&Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 8}).Run(corpus)
	for _, a := range harvest.AllAnalyses {
		s, p := seq.Rows[a], par.Rows[a]
		if s.Same != p.Same || s.OracleMP != p.OracleMP || s.LLVMMP != p.LLVMMP || s.Exhausted != p.Exhausted {
			t.Errorf("%s: sequential %+v != parallel %+v", a, *s, *p)
		}
	}
	if len(seq.Findings) != len(par.Findings) {
		t.Errorf("findings differ: %d vs %d", len(seq.Findings), len(par.Findings))
	}
}

func TestExprTimeoutProducesExhaustion(t *testing.T) {
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, ExprTimeout: time.Nanosecond}
	results := c.CompareExpr(ir.MustParse("%x:i8 = var\n%0:i8 = mul %x, %x\ninfer %0"))
	for _, r := range results {
		if r.Outcome != ResourceExhausted {
			t.Errorf("%s: outcome = %v, want resource exhaustion under 1ns budget", r.Analysis, r.Outcome)
		}
	}
}

// TestDeadCodeNeverFlagsSoundness: an expression with no well-defined
// input (here udiv 0, 0 by construction) makes every oracle fact the
// bottom element; the comparator must classify that as the oracle being
// more precise, never as an LLVM soundness bug. Regression for a false
// alarm found by a corpus sweep.
func TestDeadCodeNeverFlagsSoundness(t *testing.T) {
	srcs := []string{
		// The sweep's original false-alarm shape.
		"%v0:i8 = var\n%v1:i8 = var\n%0:i8 = and 4:i8, %v0\n%1:i8 = abs %0\n%2:i8 = urem %v1, %v1\n%3:i8 = udiv %2, %2\n%4:i8 = xor %1, %3\ninfer %4",
		"%x:i8 = var\n%0:i8 = udiv %x, 0:i8\ninfer %0",
		"%x:i8 = var\n%0:i8 = shl %x, 9:i8\ninfer %0",
	}
	for _, src := range srcs {
		results := cleanComparator().CompareExpr(ir.MustParse(src))
		for _, r := range results {
			if r.Outcome == LLVMMorePrecise {
				t.Errorf("%s: %s flagged as soundness bug on dead code\noracle=%s llvm=%s",
					src, r.Analysis, r.OracleFact, r.LLVMFact)
			}
		}
	}
}

// TestModernCompilerAgreesMore: with the post-LLVM-8 improvements applied,
// the compiler matches the oracle on strictly more comparisons than the
// LLVM-8 port, and still never looks unsound.
func TestModernCompilerAgreesMore(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed: 555, NumExprs: 40, MaxInsts: 5,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 2}},
	})
	for _, fr := range harvest.PaperFragments {
		corpus = append(corpus, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF(), Freq: 1})
	}
	classic := cleanComparator().Run(corpus)
	modern := (&Comparator{Analyzer: &llvmport.Analyzer{Modern: true}}).Run(corpus)
	if len(modern.Findings) != 0 {
		t.Fatalf("modern compiler flagged unsound %d times:\n%s",
			len(modern.Findings), modern.Findings[0])
	}
	var classicSame, modernSame int
	for _, a := range harvest.AllAnalyses {
		classicSame += classic.Rows[a].Same
		modernSame += modern.Rows[a].Same
	}
	if modernSame <= classicSame {
		t.Errorf("modern same-precision %d should exceed classic %d", modernSame, classicSame)
	}
}

// oracleForCorpus is the ablation corpus's first 12 expressions, all
// enumerated (at most 9 input bits), and its first two at 16 and at 24
// input bits, on the SAT engine with the demanded-bits sweep and with
// sampled witness pairs and miters.
func oracleForCorpus() []harvest.Expr {
	corpus := ablationCorpus()
	out := append([]harvest.Expr(nil), corpus[:12]...)
	for _, bits := range []uint{16, 24} {
		n := 0
		for _, e := range corpus[12:] {
			if n < 2 && eval.TotalInputBits(e.F) == bits {
				out = append(out, e)
				n++
			}
		}
	}
	return out
}

// TestOracleForMatchesAnalyzeAll pins oracleFor to the oracle package's
// reference sequence, AnalyzeAllWith: the same eight results for the
// same solver work (queries, pruned queries, conflicts), so building the
// engine and the seed lazily, and enriching the seed from known bits
// either way, changes nothing. With a cold cache the oracle analyzes the
// canonical form and names demanded bits in the expression's own
// variables. The corpus covers both engines.
func TestOracleForMatchesAnalyzeAll(t *testing.T) {
	for _, e := range oracleForCorpus() {
		for _, cached := range []bool{false, true} {
			c := &Comparator{Analyzer: &llvmport.Analyzer{}}
			g, rename := e.F, func(v string) string { return v }
			if cached {
				c.Cache = rescache.New()
				cn := canon.Canonicalize(e.F)
				g, rename = cn.F, cn.CanonName
			}
			got := c.oracleFor(context.Background(), e.F)
			eng := solver.NewEngine(g, solver.Config{})
			want := oracle.AnalyzeAllWith(eng, g, oracle.ComputeSeed(g))

			label := func(what string) string {
				return fmt.Sprintf("%s (%T) cached=%t: %s", e.Name, eng, cached, what)
			}
			for _, p := range []struct {
				what      string
				got, want any
			}{
				{"known bits", got.Known, want.Known},
				{"sign bits", got.Sign, want.Sign},
				{"non-zero", got.NonZero, want.NonZero},
				{"negative", got.Negative, want.Negative},
				{"non-negative", got.NonNeg, want.NonNegative},
				{"power of two", got.Pow2, want.PowerOfTwo},
				{"range", got.Range, want.Range},
			} {
				if !reflect.DeepEqual(p.got, p.want) {
					t.Errorf("%s: %+v, want %+v", label(p.what), p.got, p.want)
				}
			}
			gd, wd := got.Demanded, want.Demanded
			if gd.Feasible != wd.Feasible || gd.Exhausted != wd.Exhausted || len(gd.Demanded) != len(e.F.Vars) {
				t.Errorf("%s: %+v, want %+v", label("demanded bits"), gd, wd)
			}
			for _, v := range e.F.Vars {
				if m, w := gd.Demanded[v.Name], wd.Demanded[rename(v.Name)]; !m.Eq(w) {
					t.Errorf("%s: %%%s mask %s, want %s", label("demanded bits"), v.Name, m.BitString(), w.BitString())
				}
			}
			ws := eng.Stats()
			if gs := got.Solver; gs.Queries != ws.Queries || gs.Pruned != ws.Pruned || gs.Conflicts != ws.Conflicts {
				t.Errorf("%s: queries/pruned/conflicts %d/%d/%d, want %d/%d/%d", label("solver work"),
					gs.Queries, gs.Pruned, gs.Conflicts, ws.Queries, ws.Pruned, ws.Conflicts)
			}
		}
	}
}
