package nway

import (
	"testing"

	"dfcheck/internal/absint"
	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/stride"
	"dfcheck/internal/tnum"
)

// bruteFacts computes reference facts by scalar enumeration of the whole
// input space — the ground truth exactFacts' bit-sliced sweep must match.
func bruteFacts(t *testing.T, f *ir.Function) (Facts, bool) {
	t.Helper()
	w := f.Width()
	seen := make(map[uint64]bool)
	var vals []apint.Int
	eval.ForEachInput(f, func(env eval.Env) bool {
		if v, ok := eval.Eval(f, env); ok && !seen[v.Uint64()] {
			seen[v.Uint64()] = true
			vals = append(vals, v)
		}
		return true
	})
	if len(vals) == 0 {
		return Facts{}, false
	}
	return Facts{
		Known:       absint.KnownBits.Abstract(w, vals).(knownbits.Bits),
		Sign:        absint.SignBits.Abstract(w, vals).(absint.SignCount).N,
		Range:       absint.IntegerRange.Abstract(w, vals).(constrange.Range),
		NonZero:     absint.NonZero.Abstract(w, vals).(bool),
		Negative:    absint.Negative.Abstract(w, vals).(bool),
		NonNegative: absint.NonNegative.Abstract(w, vals).(bool),
		PowerOfTwo:  absint.PowerOfTwo.Abstract(w, vals).(bool),
		Tnum:        absint.Tnums.Abstract(w, vals).(knownbits.Bits),
		Stride:      stride.Abstract(w, vals),
		HasTnum:     true,
		HasStride:   true,
		Exact:       true,
	}, true
}

// sameFacts reports whether the exact variant's facts equal the scalar
// reference in every domain.
func sameFacts(got, want Facts) bool {
	return got.Known.Eq(want.Known) && got.Sign == want.Sign && got.Range.Eq(want.Range) &&
		got.NonZero == want.NonZero && got.Negative == want.Negative &&
		got.NonNegative == want.NonNegative && got.PowerOfTwo == want.PowerOfTwo &&
		got.HasTnum && got.Tnum.Eq(want.Tnum) &&
		got.HasStride && got.Stride.Eq(want.Stride)
}

// exactSrcs are live expressions small enough for the exact variant.
var exactSrcs = []string{
	"%x:i4 = var\n%0:i4 = and %x, 3:i4\ninfer %0",
	"%x:i4 = var\n%y:i4 = var\n%0:i4 = add %x, %y\ninfer %0",
	"%x:i8 = var (range=[3,10))\n%0:i8 = mul %x, 2:i8\ninfer %0",
	"%x:i5 = var\n%0:i5 = udiv %x, %x\ninfer %0", // correlated operands
	"%0:i6 = add 7:i6, 9:i6\ninfer %0",           // zero input bits
	"%x:i3 = var\n%c:i1 = eq %x, 2:i3\n%0:i3 = select %c, %x, 5:i3\ninfer %0",
	// Roots of 16 bits and more: the output sweep's bitset at 16, its
	// map and one sort above.
	"%x:i8 = var\n%y:i4 = var\n%0:i16 = zext %x\n%1:i16 = zext %y\n%2:i16 = shl %0, %1\ninfer %2",
	"%x:i8 = var\n%y:i4 = var\n%0:i17 = sext %x\n%1:i17 = zext %y\n%2:i17 = udiv %0, %1\ninfer %2",
	"%x:i8 = var\n%0:i32 = zext %x\n%1:i32 = mul %0, 257:i32\ninfer %1",
	"%x:i8 = var\n%0:i64 = sext %x\ninfer %0",
	"%x:i6 = var\n%y:i6 = var\n%0:i64 = zext %x\n%1:i64 = zext %y\n%2:i64 = sub %0, %1\ninfer %2",
}

func TestExactFactsMatchBruteForce(t *testing.T) {
	for _, src := range exactSrcs {
		f := ir.MustParse(src)
		got := (Best{}).Facts(f)
		want, live := bruteFacts(t, f)
		if !live {
			t.Fatalf("%s: reference says dead", src)
		}
		if got.Dead || !got.Exact {
			t.Fatalf("%s: got Dead=%v Exact=%v", src, got.Dead, got.Exact)
		}
		if !sameFacts(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", src, got, want)
		}
	}
}

// FuzzExactFacts parses arbitrary IR text and checks the exact variant on
// every function with at most 12 input bits against scalar enumeration:
// Best{}.Facts must not panic, must flag Dead exactly when no input is
// well-defined, and must otherwise equal bruteFacts in every domain.
func FuzzExactFacts(f *testing.F) {
	for _, fr := range harvest.PaperFragments {
		f.Add(fr.Source)
	}
	for _, src := range exactSrcs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil || eval.TotalInputBits(fn) > 12 {
			return
		}
		got := (Best{}).Facts(fn)
		want, live := bruteFacts(t, fn)
		if got.Dead == live {
			t.Fatalf("%s\nDead = %v, but the reference finds the expression live = %v", src, got.Dead, live)
		}
		if live && !sameFacts(got, want) {
			t.Fatalf("%s\n got  %+v\n want %+v", src, got, want)
		}
	})
}

func TestExactFactsDeadExpression(t *testing.T) {
	f := ir.MustParse("%x:i4 = var\n%0:i4 = udiv %x, 0:i4\ninfer %0")
	got := (Best{}).Facts(f)
	if !got.Dead {
		t.Fatalf("udiv by zero not flagged dead: %+v", got)
	}
}

// TestAIFactsSound drives the per-instruction best-transformer path (by
// shrinking ExactBits below the input width) and checks its claims
// against scalar enumeration.
func TestAIFactsSound(t *testing.T) {
	srcs := []string{
		"%x:i8 = var\n%0:i8 = udiv %x, 32:i8\ninfer %0",
		"%x:i8 = var (range=[3,10))\n%0:i8 = add %x, 1:i8\ninfer %0",
		"%x:i8 = var\n%y:i8 = var (range=[1,5))\n%0:i8 = urem %x, %y\ninfer %0",
		"%x:i8 = var\n%0:i8 = sub %x, %x\ninfer %0", // correlation via sharing
	}
	for _, src := range srcs {
		f := ir.MustParse(src)
		got := (Best{ExactBits: 1}).Facts(f)
		if got.Exact {
			t.Fatalf("%s: expected the AI path, got exact facts", src)
		}
		if got.Dead {
			t.Fatalf("%s: live expression flagged dead", src)
		}
		eval.ForEachInput(f, func(env eval.Env) bool {
			v, ok := eval.Eval(f, env)
			if !ok {
				return true
			}
			if !got.AbstainKnown && !got.Known.Contains(v) {
				t.Errorf("%s: known %s excludes achievable %d", src, got.Known, v.Uint64())
			}
			if !got.AbstainRange && !got.Range.Contains(v) {
				t.Errorf("%s: range %s excludes achievable %d", src, got.Range, v.Uint64())
			}
			if got.NonZero && v.IsZero() {
				t.Errorf("%s: claims non-zero but 0 achievable", src)
			}
			if got.Negative && !v.IsNegative() {
				t.Errorf("%s: claims negative but %d achievable", src, v.Uint64())
			}
			if got.NonNegative && v.IsNegative() {
				t.Errorf("%s: claims non-negative but %d achievable", src, v.Uint64())
			}
			return true
		})
	}
}

func TestAIFactsPrecision(t *testing.T) {
	// udiv %x, 32 over i8 has image [0,8): the best transformer should
	// find the range exactly even though the input space (2^8) is above
	// the forced ExactBits.
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv %x, 32:i8\ninfer %0")
	got := (Best{ExactBits: 1}).Facts(f)
	want := constrange.NonEmpty(apint.New(8, 0), apint.New(8, 8))
	if got.AbstainRange || !got.Range.Eq(want) {
		t.Fatalf("range = %s (abstain=%v), want %s", got.Range, got.AbstainRange, want)
	}
	if !got.NonNegative {
		t.Fatalf("image [0,8) should entail non-negative")
	}
}

func TestAIFactsAbstainOverBudget(t *testing.T) {
	// Two unconstrained i32 inputs: every concretization is astronomically
	// over budget, so the best variant must abstain everywhere rather than
	// claim top — and a clean pair comparison must not escalate because
	// of it.
	f := ir.MustParse("%x:i32 = var\n%y:i32 = var\n%0:i32 = add %x, %y\ninfer %0")
	got := (Best{}).Facts(f)
	if !got.AbstainKnown || !got.AbstainRange || !got.AbstainSign || !got.PredsPartial {
		t.Fatalf("over-budget facts should abstain: %+v", got)
	}
	if got.NonZero || got.Negative || got.NonNegative || got.PowerOfTwo {
		t.Fatalf("over-budget facts should claim no predicate: %+v", got)
	}
	modern := Variant{Name: "modern", Facts: analyzerFacts(llvmport.Analyzer{Modern: true})}
	cmp := Compare(f, []Variant{modern, {Name: "best", Facts: (Best{}).Facts}})
	if cmp.Disagreements != 0 {
		t.Fatalf("abstaining variant caused %d disagreements", cmp.Disagreements)
	}
}

func TestCleanVariantsNeverContradict(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed:     7,
		NumExprs: 60,
		MaxInsts: 4,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 3}},
	})
	vs := Variants(&llvmport.Analyzer{})
	agreed := 0
	for _, e := range corpus {
		cmp := Compare(e.F, vs)
		if len(cmp.Contradictions) != 0 {
			t.Errorf("%s: clean variants contradict: %+v\n%s", e.Name, cmp.Contradictions, e.F)
		}
		if !cmp.Dead && !cmp.Escalate() {
			agreed++
		}
	}
	if agreed == 0 {
		t.Fatalf("pre-filter never agreed on %d clean expressions", len(corpus))
	}
}

func TestVariantsSkipsModernDuplicate(t *testing.T) {
	if n := len(Variants(&llvmport.Analyzer{Modern: true})); n != 3 {
		t.Fatalf("modern under test: %d variants, want 3", n)
	}
	if n := len(Variants(&llvmport.Analyzer{})); n != 4 {
		t.Fatalf("llvm8 under test: %d variants, want 4", n)
	}
}

// TestDomainInterpCrossChecked: on a small expression the exact variant
// claims tnum and stride facts, so the transfer-domain interpreter is
// genuinely cross-checked — and on a clean interpreter the exact α must
// be below the interpreted claim, never contradictory.
func TestDomainInterpCrossChecked(t *testing.T) {
	f := ir.MustParse("%x:i4 = var\n%0:i4 = shl %x, 1:i4\ninfer %0")
	di := DomainInterp{}.Facts(f)
	if !di.HasTnum || !di.HasStride {
		t.Fatalf("domain-interp claims nothing: %+v", di)
	}
	// shl by 1 makes the low bit known zero and the stride even.
	if di.Tnum.Contains(apint.New(4, 1)) {
		t.Errorf("tnum %s admits odd value after shl 1", di.Tnum)
	}
	if di.Stride.Contains(apint.New(4, 1)) {
		t.Errorf("stride %s admits odd value after shl 1", di.Stride)
	}
	cmp := Compare(f, Variants(&llvmport.Analyzer{}))
	if len(cmp.Contradictions) != 0 {
		t.Fatalf("clean transfer domains contradict: %+v", cmp.Contradictions)
	}
}

// TestDomainInterpCatchesSeededTnumBug: the seeded mask-recurrence bug
// makes the tnum multiply claim "constant 0" for x·1 at i1, which the
// exact variant's α (top) refutes — a solver-free variant contradiction
// in the tnum domain.
func TestDomainInterpCatchesSeededTnumBug(t *testing.T) {
	f := ir.MustParse("%x:i1 = var\n%0:i1 = mul %x, 1:i1\ninfer %0")
	vs := []Variant{
		{Name: "exact", Facts: (Best{}).Facts},
		{Name: "bugged-tnum", Facts: DomainInterp{Tnum: tnum.Analysis{Bugs: tnum.Bugs{MulMask: true}}}.Facts},
	}
	cmp := Compare(f, vs)
	found := false
	for _, cd := range cmp.Contradictions {
		if cd.Analysis == harvest.Tnum {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded tnum-mul bug not contradicted: %+v", cmp)
	}
	if !cmp.Escalate() {
		t.Errorf("tnum contradiction did not count as a disagreement")
	}
}

// TestSeededBugsCaught checks each §4.7 bug against its trigger: the
// exact-facts path turns bugs 1 and 3 into solver-free contradictions,
// while bug 2 (32-bit input space) must at least escalate.
func TestSeededBugsCaught(t *testing.T) {
	for _, tr := range harvest.SoundnessTriggers {
		an := &llvmport.Analyzer{}
		switch tr.Bug {
		case 1:
			an.Bugs.NonZeroAdd = true
		case 2:
			an.Bugs.SRemSignBits = true
		case 3:
			an.Bugs.SRemKnownBits = true
		}
		f := ir.MustParse(tr.Source)
		cmp := Compare(f, Variants(an))
		if cmp.Dead {
			t.Fatalf("%s: trigger flagged dead", tr.Name)
		}
		if !cmp.Escalate() {
			t.Errorf("%s: seeded bug did not escalate", tr.Name)
		}
		if tr.Bug == 2 {
			continue // 32-bit input space: disagreement only, oracle decides
		}
		found := false
		for _, c := range cmp.Contradictions {
			if c.Analysis == tr.Analysis {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s contradiction; got %+v", tr.Name, tr.Analysis, cmp.Contradictions)
		}
	}
}

func TestCompareEscalatesOnlyOnDisagreement(t *testing.T) {
	// Identical variants can never disagree with themselves.
	an := analyzerFacts(llvmport.Analyzer{})
	vs := []Variant{{Name: "a", Facts: an}, {Name: "b", Facts: an}}
	corpus := harvest.Generate(harvest.Config{Seed: 11, NumExprs: 20, MaxInsts: 4, Widths: []harvest.WidthWeight{{Width: 8, Weight: 1}}})
	for _, e := range corpus {
		cmp := Compare(e.F, vs)
		if cmp.Escalate() || len(cmp.Contradictions) != 0 {
			t.Fatalf("%s: identical variants disagreed: %+v", e.Name, cmp)
		}
	}
}
