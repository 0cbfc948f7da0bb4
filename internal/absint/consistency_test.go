package absint

import (
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/stride"
)

// TestSmallestGEExhaustive checks smallestGE against brute force for
// every conflict-free known-bits element and every start value at width
// 4: the result must be the true minimum of γ(k) ∩ [a, 2^w).
func TestSmallestGEExhaustive(t *testing.T) {
	const w = 4
	KnownBits.Enum(w, func(e Elem) bool {
		k := e.(knownbits.Bits)
		for a := uint64(0); a < 1<<w; a++ {
			wantV, wantOK := uint64(0), false
			for x := a; x < 1<<w; x++ {
				if k.Contains(apint.New(w, x)) {
					wantV, wantOK = x, true
					break
				}
			}
			gotV, gotOK := smallestGE(k, a)
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("smallestGE(%s, %d) = (%d, %t), want (%d, %t)", k, a, gotV, gotOK, wantV, wantOK)
			}
		}
		return true
	})
}

// TestSignBandExhaustive: signBand(w, s) must be exactly the set of
// values with at least s sign bits.
func TestSignBandExhaustive(t *testing.T) {
	for w := uint(1); w <= 4; w++ {
		for s := uint(1); s <= w; s++ {
			band := signBand(w, s)
			for x := uint64(0); x < 1<<w; x++ {
				v := apint.New(w, x)
				want := v.NumSignBits() >= s
				if got := band.Contains(v); got != want {
					t.Fatalf("signBand(%d, %d) = %s: Contains(%s) = %t, want %t", w, s, band, v, got, want)
				}
			}
		}
	}
}

// TestKSignFeasibleExhaustive checks the known-bits/sign-bits
// feasibility predicate against enumeration at width 4.
func TestKSignFeasibleExhaustive(t *testing.T) {
	const w = 4
	KnownBits.Enum(w, func(e Elem) bool {
		k := e.(knownbits.Bits)
		for s := uint(1); s <= w; s++ {
			want := false
			for x := uint64(0); x < 1<<w; x++ {
				if v := apint.New(w, x); k.Contains(v) && v.NumSignBits() >= s {
					want = true
					break
				}
			}
			if got := kSignFeasible(k, s); got != want {
				t.Fatalf("kSignFeasible(%s, %d) = %t, want %t", k, s, got, want)
			}
		}
		return true
	})
}

// TestKRangeMemberExhaustive: for every known-bits element and every
// non-empty range at width 3, kRangeMember must agree with brute-force
// intersection — both on existence and on validity of the returned value.
func TestKRangeMemberExhaustive(t *testing.T) {
	const w = 3
	mask := uint64(1)<<w - 1
	KnownBits.Enum(w, func(ke Elem) bool {
		k := ke.(knownbits.Bits)
		IntegerRange.Enum(w, func(re Elem) bool {
			r := re.(constrange.Range)
			want := false
			for x := uint64(0); x <= mask; x++ {
				if v := apint.New(w, x); k.Contains(v) && r.Contains(v) {
					want = true
					break
				}
			}
			v, ok := kRangeMember(k, r, 0, mask)
			if ok != want {
				t.Fatalf("kRangeMember(%s, %s) = %t, want %t", k, r, ok, want)
			}
			if ok {
				av := apint.New(w, v)
				if !k.Contains(av) || !r.Contains(av) {
					t.Fatalf("kRangeMember(%s, %s) returned %d, not a common member", k, r, v)
				}
			}
			return true
		})
		return true
	})
}

// buggedFacts analyzes src under the given bug configuration.
func buggedFacts(t *testing.T, src string, bugs llvmport.BugConfig) (*ir.Function, *llvmport.Facts) {
	t.Helper()
	f := ir.MustParse(src)
	an := &llvmport.Analyzer{Bugs: bugs}
	return f, an.Analyze(f)
}

// TestCheckFactsFindsContradiction: bug 1 (the non-zero analysis's bad
// add rule) proves "0 + 0" non-zero while known bits and the range both
// prove the value is exactly zero — a cross-domain contradiction
// CheckFacts must report, with the lint's exactness guarantee that the
// clean analyzer reports nothing on the same expression.
func TestCheckFactsFindsContradiction(t *testing.T) {
	src := "%0:i8 = add 0:i8, 0:i8\ninfer %0"
	f, fa := buggedFacts(t, src, llvmport.BugConfig{NonZeroAdd: true})
	incons, checks := CheckFacts(f, fa)
	if checks == 0 {
		t.Fatalf("no consistency checks ran")
	}
	if len(incons) == 0 {
		t.Fatalf("bug 1 contradiction not reported (known bits %s, range %s)",
			fa.KnownBits(), fa.Range())
	}
	if incons[0].Inst == "" || incons[0].Detail == "" {
		t.Errorf("inconsistency missing inst/detail: %+v", incons[0])
	}

	cf, cfa := buggedFacts(t, src, llvmport.BugConfig{})
	if clean, _ := CheckFacts(cf, cfa); len(clean) != 0 {
		t.Fatalf("clean analyzer flagged inconsistent: %v", clean)
	}
}

// TestCheckFactsPoisonOnlyIsCallerGated documents the division of
// labor: "add nuw 1, 1" at i1 always overflows, so every fact about it
// is vacuously sound, yet the facts genuinely contradict each other
// (non-zero proved, known bits zero) and CheckFacts — which judges only
// the facts — reports that. Suppressing it is the caller's job: the
// verifier lints only tuples with a live concrete image, and the
// comparator checks the expression has a well-defined input first.
func TestCheckFactsPoisonOnlyIsCallerGated(t *testing.T) {
	f := ir.MustParse("%0:i1 = addnuw 1:i1, 1:i1\ninfer %0")
	an := &llvmport.Analyzer{}
	fa := an.Analyze(f)
	if incons, _ := CheckFacts(f, fa); len(incons) == 0 {
		t.Fatalf("expected the vacuous contradiction to be visible to CheckFacts itself")
	}
}

// TestStrideSegMemberExhaustive: stride×segment membership must agree
// with brute force for every canonical element and every inclusive
// interval at width 4.
func TestStrideSegMemberExhaustive(t *testing.T) {
	const w = 4
	Strides.Enum(w, func(e Elem) bool {
		s := e.(stride.S)
		for lo := uint64(0); lo < 1<<w; lo++ {
			for hi := lo; hi < 1<<w; hi++ {
				want := false
				for x := lo; x <= hi; x++ {
					if s.Contains(apint.New(w, x)) {
						want = true
						break
					}
				}
				if got := strideSegMember(s, lo, hi); got != want {
					t.Fatalf("strideSegMember(%s, %d, %d) = %t, want %t", s, lo, hi, got, want)
				}
			}
		}
		return true
	})
}

// TestCheckFactsDomainsFindsContradictions: hand-planted tnum and stride
// facts that exclude everything the analyzer's facts admit must each be
// reported by the extended lint, and the clean interpreters' real facts
// on the same expression must not be.
func TestCheckFactsDomainsFindsContradictions(t *testing.T) {
	src := "%x:i8 = var\n%0:i8 = and %x, 1:i8\ninfer %0"
	f := ir.MustParse(src)
	an := &llvmport.Analyzer{}
	fa := an.Analyze(f)

	if incons, checks := CheckFactsDomains(f, fa, ExtraFactsFor(f, []Domain{Tnums, Strides})); len(incons) != 0 {
		t.Fatalf("clean extra facts flagged inconsistent: %v", incons)
	} else if checks <= 3 {
		t.Fatalf("extended lint ran only %d checks", checks)
	}

	// The analyzer proves the top seven bits zero; a tnum claiming the
	// value is exactly 2 and a stride claiming v ≡ 2 (mod 4) both
	// contradict that.
	root := f.Root
	badTnum := ExtraFacts{Tnum: map[*ir.Inst]knownbits.Bits{root: knownbits.FromConst(apint.New(8, 2))}}
	if incons, _ := CheckFactsDomains(f, fa, badTnum); len(incons) == 0 {
		t.Fatalf("planted tnum contradiction not reported (known bits %s)", fa.KnownBits())
	}
	badStride := ExtraFacts{Stride: map[*ir.Inst]stride.S{root: stride.Make(8, 2, 4)}}
	if incons, _ := CheckFactsDomains(f, fa, badStride); len(incons) == 0 {
		t.Fatalf("planted stride contradiction not reported (range %s)", fa.Range())
	}
}

// TestModernAnalyzerConsistentOnCorpus is the corpus property test: the
// Modern analyzer's facts must pass the cross-domain lint on every
// expression of a 1000-expression harvested corpus, without any solver
// involvement.
func TestModernAnalyzerConsistentOnCorpus(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed:     7,
		NumExprs: 1000,
		MaxInsts: 6,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 2}, {Width: 16, Weight: 1}},
	})
	if len(corpus) < 1000 {
		t.Fatalf("corpus has %d exprs, want 1000", len(corpus))
	}
	an := &llvmport.Analyzer{Modern: true}
	totalChecks := 0
	for _, e := range corpus {
		fa := an.Analyze(e.F)
		// The extended lint cross-checks the clean tnum and stride
		// interpreters against the analyzer on every expression too.
		incons, checks := CheckFactsDomains(e.F, fa, ExtraFactsFor(e.F, []Domain{Tnums, Strides}))
		totalChecks += checks
		if len(incons) != 0 {
			t.Fatalf("%s: modern analyzer inconsistent on\n%s\n%v", e.Name, e.F, incons)
		}
	}
	if totalChecks == 0 {
		t.Fatalf("no consistency checks ran over the corpus")
	}
}
