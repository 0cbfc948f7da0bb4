package absint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/tnum"
)

// TestVerifyCleanAnalyzer: the exhaustive sweep over every op at widths
// 1–3 must grade the fixed LLVM-8 port sound everywhere, and the
// cross-domain lint must stay silent too. Workers > 1 exercises the
// worker pool under the race detector.
func TestVerifyCleanAnalyzer(t *testing.T) {
	rep := Verify(Config{MaxWidth: 3, Workers: 4, Lint: true})
	if !rep.Sound() {
		msgs := make([]string, 0, len(rep.Findings))
		for _, w := range rep.Findings {
			msgs = append(msgs, w.String())
		}
		t.Fatalf("clean analyzer graded unsound:\n%s", strings.Join(msgs, "\n"))
	}
	if rep.Tuples == 0 || rep.LintChecks == 0 {
		t.Fatalf("sweep did no work: %d tuples, %d lint checks", rep.Tuples, rep.LintChecks)
	}
	// Every op variant must have produced at least one stat row.
	ops := map[string]bool{}
	for _, st := range rep.Stats {
		ops[st.Op] = true
	}
	for _, op := range ir.AllOps() {
		if op == ir.OpBSwap {
			continue // byte widths only; never sweepable at <= 6 bits
		}
		if !ops[op.String()] {
			t.Errorf("no stats for %s", op)
		}
	}
	if ops[ir.OpBSwap.String()] {
		t.Errorf("bswap swept at a non-byte width")
	}
}

// TestVerifyPrecisionGrading: some transfer functions are deliberately
// weaker than the best abstraction (LLVM trades precision for compile
// time), so a clean sweep must grade a nonzero imprecise share — if
// every tuple came back precise the grading itself would be suspect.
func TestVerifyPrecisionGrading(t *testing.T) {
	rep := Verify(Config{MaxWidth: 2, Ops: []ir.Op{ir.OpMul, ir.OpAdd}})
	var precise, imprecise uint64
	for _, st := range rep.Stats {
		precise += st.Precise
		imprecise += st.Imprecise
	}
	if precise == 0 || imprecise == 0 {
		t.Fatalf("grading looks degenerate: %d precise, %d imprecise", precise, imprecise)
	}
}

func findWitness(rep *Report, kind, domain string) *Witness {
	for i := range rep.Findings {
		if rep.Findings[i].Kind == kind && rep.Findings[i].Domain == domain {
			return &rep.Findings[i]
		}
	}
	return nil
}

// TestVerifyDetectsBug1: the non-zero add bug must be caught at the
// minimal width i1 with the abstract inputs named in the witness, with
// no solver anywhere on the path.
func TestVerifyDetectsBug1(t *testing.T) {
	rep := Verify(Config{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{NonZeroAdd: true}},
		Ops:      []ir.Op{ir.OpAdd},
		Lint:     true,
		Workers:  4,
	})
	w := findWitness(rep, "unsound", "non-zero")
	if w == nil {
		t.Fatalf("bug 1 not detected; findings: %v", rep.Findings)
	}
	if w.Op != "add" || w.Width != "i1" {
		t.Errorf("witness not minimal: op %s at %s, want add at i1", w.Op, w.Width)
	}
	if len(w.Inputs) != 2 || w.Got == "" || w.Want == "" {
		t.Errorf("witness incomplete: %+v", *w)
	}
	// The same bug is also a cross-domain contradiction (non-zero vs the
	// zero the other domains prove), so the lint must flag it too.
	if lw := findWitness(rep, "inconsistent", "consistency"); lw == nil {
		t.Errorf("bug 1 not caught by the consistency lint")
	}
}

// TestVerifyDetectsBug2: the srem sign-bits bug appears first at i3
// (smaller widths cannot distinguish the off-by-one), in the sign-bits
// output domain.
func TestVerifyDetectsBug2(t *testing.T) {
	rep := Verify(Config{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}},
		Ops:      []ir.Op{ir.OpSRem},
	})
	w := findWitness(rep, "unsound", "sign bits")
	if w == nil {
		t.Fatalf("bug 2 not detected; findings: %v", rep.Findings)
	}
	if w.Op != "srem" || w.Width != "i3" {
		t.Errorf("witness not minimal: op %s at %s, want srem at i3", w.Op, w.Width)
	}
	if len(w.Inputs) != 2 || w.ConcreteOut == "" {
		t.Errorf("witness missing inputs or counterexample: %+v", *w)
	}
}

// TestVerifyDetectsBug3: the srem known-bits wrong-operand bug (LLVM
// PR12541) appears first at i3 — the witness is the paper's own "4 srem
// 3" shape — in the known-bits output domain.
func TestVerifyDetectsBug3(t *testing.T) {
	rep := Verify(Config{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemKnownBits: true}},
		Ops:      []ir.Op{ir.OpSRem},
	})
	w := findWitness(rep, "unsound", "known bits")
	if w == nil {
		t.Fatalf("bug 3 not detected; findings: %v", rep.Findings)
	}
	if w.Op != "srem" || w.Width != "i3" {
		t.Errorf("witness not minimal: op %s at %s, want srem at i3", w.Op, w.Width)
	}
	if len(w.ConcreteIn) != 2 || w.ConcreteOut == "" {
		t.Errorf("witness has no concrete counterexample: %+v", *w)
	}
}

// TestVerifyNoBugEscapesRestriction: the tuple budget's progressive
// operand restriction must not mask a bug — bug 2 is still found when
// the budget forces every operand list down to singletons and top.
func TestVerifyNoBugEscapesRestriction(t *testing.T) {
	rep := Verify(Config{
		Analyzer:  &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}},
		Ops:       []ir.Op{ir.OpSRem},
		MaxTuples: 1,
	})
	limited := false
	for _, st := range rep.Stats {
		limited = limited || st.Limited
	}
	if !limited {
		t.Fatalf("MaxTuples=1 did not limit any task")
	}
	if w := findWitness(rep, "unsound", "sign bits"); w == nil {
		t.Fatalf("bug 2 masked by tuple restriction; findings: %v", rep.Findings)
	}
}

// TestVerifyTransferDomainsClean: the self-contained tnum and stride
// suites must grade sound on every op at widths 1–3, with every stat row
// attributed to the transfer domains and no LLVM-port task in the sweep.
func TestVerifyTransferDomainsClean(t *testing.T) {
	rep := Verify(Config{MaxWidth: 3, Workers: 4, Domains: []Domain{Tnums, Strides}})
	if !rep.Sound() {
		msgs := make([]string, 0, len(rep.Findings))
		for _, w := range rep.Findings {
			msgs = append(msgs, w.String())
		}
		t.Fatalf("transfer suites graded unsound:\n%s", strings.Join(msgs, "\n"))
	}
	if rep.Tuples == 0 {
		t.Fatalf("sweep did no work")
	}
	var sawTnum, sawStride bool
	for _, st := range rep.Stats {
		switch st.InDomain {
		case "tnum":
			sawTnum = true
		case "stride":
			sawStride = true
		default:
			t.Fatalf("unexpected input domain %q in a restricted sweep", st.InDomain)
		}
		if st.InDomain != st.Domain {
			t.Fatalf("transfer domain %q graded against %q", st.InDomain, st.Domain)
		}
	}
	if !sawTnum || !sawStride {
		t.Fatalf("missing stats: tnum=%t stride=%t", sawTnum, sawStride)
	}
}

// TestVerifyDetectsTnumMulBug: the seeded mask-recurrence off-by-one in
// the verified tnum multiply must surface with the minimal
// width-ascending witness — mul at i1, where x · 1 comes back as the
// constant 0.
func TestVerifyDetectsTnumMulBug(t *testing.T) {
	rep := Verify(Config{
		MaxWidth: 3,
		Domains:  []Domain{TnumsWithBugs(tnum.Bugs{MulMask: true})},
	})
	w := findWitness(rep, "unsound", "tnum")
	if w == nil {
		t.Fatalf("tnum mul bug not detected; findings: %v", rep.Findings)
	}
	if w.Op != "mul" || w.Width != "i1" {
		t.Errorf("witness not minimal: op %s at %s, want mul at i1", w.Op, w.Width)
	}
	if len(w.ConcreteIn) != 2 || w.ConcreteOut == "" {
		t.Errorf("witness has no concrete counterexample: %+v", *w)
	}
	// Only mul variants share the broken kernel; no other op may be blamed.
	for _, f := range rep.Findings {
		if !strings.HasPrefix(f.Op, "mul") {
			t.Errorf("clean op %s blamed: %s", f.Op, f.String())
		}
	}
}

// TestVerifyWidthClamp: widths above 6 are clamped (the concrete-image
// bitset is a uint64), and MinWidth > MaxWidth degrades sanely.
func TestVerifyWidthClamp(t *testing.T) {
	rep := Verify(Config{MinWidth: 9, MaxWidth: 9, Ops: []ir.Op{ir.OpAnd}})
	for _, st := range rep.Stats {
		if st.Width != "i6" {
			t.Fatalf("width not clamped to i6: %s", st.Width)
		}
	}
	if len(rep.Stats) == 0 {
		t.Fatalf("clamped sweep did nothing")
	}
}

// TestVerifyProgress: the progress callback must reach done == total.
func TestVerifyProgress(t *testing.T) {
	var last, total int
	Verify(Config{MaxWidth: 2, Ops: []ir.Op{ir.OpXor}, Workers: 1, Progress: func(d, tot int) {
		if d > last {
			last = d
		}
		total = tot
	}})
	if last == 0 || last != total {
		t.Fatalf("progress stopped at %d/%d", last, total)
	}
}

// buildTableScalar is buildTable's reference: the same table, filled by
// one scalar interpreter call per entry.
func buildTableScalar(t task, ws []uint) []int16 {
	b := ir.NewBuilder()
	vars := make([]*ir.Inst, len(ws))
	var total uint
	for i, w := range ws {
		vars[i] = b.Var(argNames[i], w)
		total += w
	}
	f := b.Function(buildRoot(b, t, vars))
	tbl := make([]int16, uint64(1)<<total)
	env := make(eval.Env, len(vars))
	for i := range tbl {
		bits := uint64(i)
		for j, v := range vars {
			env[v] = apint.New(ws[j], bits)
			bits >>= ws[j]
		}
		if r, ok := eval.Eval(f, env); ok {
			tbl[i] = int16(r.Uint64())
		} else {
			tbl[i] = -1
		}
	}
	return tbl
}

// TestBuildTableSlicedMatchesScalar pins the sliced table builder to the
// scalar reference across every task of a width-1..5 sweep (all ops, all
// flag variants, including UB entries).
func TestBuildTableSlicedMatchesScalar(t *testing.T) {
	cfg := Config{MinWidth: 1, MaxWidth: 5}.withDefaults()
	for _, task := range buildTasks(cfg) {
		if task.inDom != inputDomains[0] {
			continue // the table depends only on (op, widths)
		}
		ws := task.operandWidths()
		sliced := buildTable(task, ws)
		scalar := buildTableScalar(task, ws)
		for i := range sliced {
			if sliced[i] != scalar[i] {
				t.Fatalf("%s %s: table[%d] sliced=%d scalar=%d",
					task.v, task.widthLabel(), i, sliced[i], scalar[i])
			}
		}
	}
}

// precisionProfile runs the two pinned sweeps — the tnum and stride
// transfer suites at widths 1–4, and the LLVM-port known-bits inputs at
// widths 1–3 — and renders one tab-separated line per Stat row.
func precisionProfile(t *testing.T) string {
	var b strings.Builder
	b.WriteString("# op\twidth\tinput\tdomain\ttuples\tsound\tprecise\timprecise\tunsound\tdead\tlimited\n")
	for _, cfg := range []Config{
		{MaxWidth: 4, Domains: []Domain{Tnums, Strides}},
		{MaxWidth: 3, Domains: []Domain{KnownBits}},
	} {
		rep := Verify(cfg)
		for _, w := range rep.Findings {
			t.Errorf("clean sweep found %s", w)
		}
		for _, st := range rep.Stats {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n",
				st.Op, st.Width, st.InDomain, st.Domain, st.Tuples, st.Sound,
				st.Precise, st.Imprecise, st.Unsound, st.Dead, st.Limited)
		}
	}
	return b.String()
}

// TestPrecisionProfile pins the verifier's per-op precision profile: every
// stat row of the transfer-suite sweep and of the known-bits sweep must
// match testdata/precision-profile.txt, so a change to a transfer
// function's precision, to the known-bits input enumeration, or to the
// grading itself shows up row by row.
func TestPrecisionProfile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "precision-profile.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(precisionProfile(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs:\ngot:  %q\nwant: %q", i+1, g, w)
		}
	}
}
