package oracle

import (
	"fmt"
	"os"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/solver"
)

func seedTestCorpus(seed int64, n int) []harvest.Expr {
	return harvest.Generate(harvest.Config{
		Seed:     seed,
		NumExprs: n,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 1}},
	})
}

// seedShiftCorpus holds rotates and funnel shifts at i2–i4, whose amount
// operands the seed's demanded masks prune at power-of-two widths: bare,
// with a computed amount, and with the amount also a value operand.
func seedShiftCorpus() []harvest.Expr {
	var out []harvest.Expr
	add := func(src string) {
		out = append(out, harvest.Expr{Name: fmt.Sprintf("shift-%d", len(out)), F: ir.MustParse(src), Freq: 1})
	}
	for w := 2; w <= 4; w++ {
		for _, op := range []string{"rotl", "rotr"} {
			add(fmt.Sprintf("%%x:i%d = var\n%%s:i%d = var\n%%0:i%d = %s %%x, %%s\ninfer %%0", w, w, w, op))
			add(fmt.Sprintf("%%x:i%d = var\n%%y:i%d = var\n%%0:i%d = add %%y, 1:i%d\n%%1:i%d = %s %%x, %%0\ninfer %%1",
				w, w, w, w, w, op))
		}
		for _, op := range []string{"fshl", "fshr"} {
			add(fmt.Sprintf("%%a:i%d = var\n%%b:i%d = var\n%%s:i%d = var\n%%0:i%d = %s %%a, %%b, %%s\ninfer %%0",
				w, w, w, w, op))
			add(fmt.Sprintf("%%a:i%d = var\n%%b:i%d = var\n%%0:i%d = %s %%a, %%b, %%b\ninfer %%0", w, w, w, op))
		}
	}
	return out
}

// TestSeedSoundOnBruteForce verifies the seed's soundness contract against
// exhaustive enumeration: every claim must hold on every well-defined
// input (TriTrue claims universally, TriFalse claims existentially), and
// flipping a bit the seed's demanded mask leaves clear never changes a
// well-defined output.
func TestSeedSoundOnBruteForce(t *testing.T) {
	for _, e := range append(seedTestCorpus(41, 60), seedShiftCorpus()...) {
		if eval.TotalInputBits(e.F) > 12 {
			continue
		}
		sd := ComputeSeed(e.F)
		if !sd.Valid {
			continue
		}
		checkSeedDemanded(t, e, sd)
		var (
			feasible                   bool
			sawZero, sawNeg, sawNonNeg bool
			sawNonPow2                 bool
			minSign                    = e.F.Width()
		)
		eval.ForEachInput(e.F, func(env eval.Env) bool {
			v, ok := eval.Eval(e.F, env)
			if !ok {
				return true
			}
			feasible = true
			if !sd.Known.Contains(v) {
				t.Fatalf("%s: seed known bits %v exclude achievable output %v\n%s", e.Name, sd.Known, v, e.F)
			}
			if got := v.NumSignBits(); got < sd.SignBits {
				t.Fatalf("%s: seed claims %d sign bits, output %v has %d\n%s", e.Name, sd.SignBits, v, got, e.F)
			}
			if got := v.NumSignBits(); got < minSign {
				minSign = got
			}
			if !sd.Range.Contains(v) {
				t.Fatalf("%s: seed range %v excludes achievable output %v\n%s", e.Name, sd.Range, v, e.F)
			}
			if sd.NonZero == TriTrue && v.IsZero() {
				t.Fatalf("%s: seed claims non-zero, output 0 achievable\n%s", e.Name, e.F)
			}
			if sd.Negative == TriTrue && !v.IsNegative() {
				t.Fatalf("%s: seed claims negative, output %v achievable\n%s", e.Name, v, e.F)
			}
			if sd.NonNegative == TriTrue && v.IsNegative() {
				t.Fatalf("%s: seed claims non-negative, output %v achievable\n%s", e.Name, v, e.F)
			}
			if sd.PowerOfTwo == TriTrue && !v.IsPowerOfTwo() {
				t.Fatalf("%s: seed claims power-of-two, output %v achievable\n%s", e.Name, v, e.F)
			}
			if v.IsZero() {
				sawZero = true
			}
			if v.IsNegative() {
				sawNeg = true
			} else {
				sawNonNeg = true
			}
			if !v.IsPowerOfTwo() {
				sawNonPow2 = true
			}
			return true
		})
		if !feasible {
			continue // claims are vacuous on dead code
		}
		// TriFalse refutations claim a counterexample exists.
		if sd.NonZero == TriFalse && !sawZero {
			t.Errorf("%s: seed refutes non-zero but 0 is not achievable\n%s", e.Name, e.F)
		}
		if sd.Negative == TriFalse && !sawNonNeg {
			t.Errorf("%s: seed refutes negative but no non-negative output exists\n%s", e.Name, e.F)
		}
		if sd.NonNegative == TriFalse && !sawNeg {
			t.Errorf("%s: seed refutes non-negative but no negative output exists\n%s", e.Name, e.F)
		}
		if sd.PowerOfTwo == TriFalse && !sawNonPow2 {
			t.Errorf("%s: seed refutes power-of-two but every output is one\n%s", e.Name, e.F)
		}
		_ = minSign
	}
}

// checkSeedDemanded checks the seed's demanded masks: one per variable,
// at its width, and no well-defined input pair differing only in a bit
// the mask leaves clear gives two different outputs.
func checkSeedDemanded(t *testing.T, e harvest.Expr, sd Seed) {
	t.Helper()
	for _, v := range e.F.Vars {
		mask, ok := sd.Demanded[v.Name]
		if !ok || mask.Width() != v.Width {
			t.Fatalf("%s: seed has no i%d demanded mask for %%%s (got %v)\n%s", e.Name, v.Width, v.Name, mask, e.F)
		}
		for i := uint(0); i < v.Width; i++ {
			if mask.Bit(i) {
				continue
			}
			eval.ForEachInput(e.F, func(env eval.Env) bool {
				v1, ok1 := eval.Eval(e.F, env)
				env[v] = env[v].FlipBit(i)
				v2, ok2 := eval.Eval(e.F, env)
				env[v] = env[v].FlipBit(i)
				if ok1 && ok2 && v1.Ne(v2) {
					t.Fatalf("%s: seed marks bit %d of %%%s undemanded, but flipping it changes %v to %v\n%s",
						e.Name, i, v.Name, v1, v2, e.F)
				}
				return true
			})
		}
	}
}

// TestSeededMatchesUnseeded is the central no-behaviour-change property of
// seeding: on random DAGs, the fully seeded oracle run (shared engine,
// enum fast path enabled) must produce exactly the facts of the unseeded
// run on a plain SAT engine. Seeding and the fast paths may only skip
// work, never change an answer.
func TestSeededMatchesUnseeded(t *testing.T) {
	for _, e := range seedTestCorpus(42, 50) {
		seeded := AnalyzeAllWith(solver.NewEngine(e.F, solver.Config{}), e.F, ComputeSeed(e.F))
		plain := AnalyzeAllWith(solver.NewSAT(e.F, 0), e.F, Seed{})

		if seeded.Known.Exhausted || plain.Known.Exhausted {
			continue // exhaustion makes precision incomparable
		}
		if !seeded.Known.Bits.Eq(plain.Known.Bits) || seeded.Known.Feasible != plain.Known.Feasible {
			t.Errorf("%s: known bits differ: seeded %v, unseeded %v\n%s", e.Name, seeded.Known.Bits, plain.Known.Bits, e.F)
		}
		if seeded.Sign.NumSignBits != plain.Sign.NumSignBits {
			t.Errorf("%s: sign bits differ: seeded %d, unseeded %d\n%s", e.Name, seeded.Sign.NumSignBits, plain.Sign.NumSignBits, e.F)
		}
		if seeded.NonZero.Proved != plain.NonZero.Proved {
			t.Errorf("%s: non-zero differs: seeded %v, unseeded %v\n%s", e.Name, seeded.NonZero.Proved, plain.NonZero.Proved, e.F)
		}
		if seeded.Negative.Proved != plain.Negative.Proved {
			t.Errorf("%s: negative differs: seeded %v, unseeded %v\n%s", e.Name, seeded.Negative.Proved, plain.Negative.Proved, e.F)
		}
		if seeded.NonNegative.Proved != plain.NonNegative.Proved {
			t.Errorf("%s: non-negative differs: seeded %v, unseeded %v\n%s", e.Name, seeded.NonNegative.Proved, plain.NonNegative.Proved, e.F)
		}
		if seeded.PowerOfTwo.Proved != plain.PowerOfTwo.Proved {
			t.Errorf("%s: power-of-two differs: seeded %v, unseeded %v\n%s", e.Name, seeded.PowerOfTwo.Proved, plain.PowerOfTwo.Proved, e.F)
		}
		if !seeded.Range.Exhausted && !plain.Range.Exhausted {
			// Several distinct minimal windows can tie; require equal size
			// and that each covers everything the other claims achievable.
			ss, shuge := seeded.Range.Range.Size()
			ps, phuge := plain.Range.Range.Size()
			if ss != ps || shuge != phuge {
				t.Errorf("%s: range sizes differ: seeded %v, unseeded %v\n%s", e.Name, seeded.Range.Range, plain.Range.Range, e.F)
			}
		}
		for name, want := range plain.Demanded.Demanded {
			if got := seeded.Demanded.Demanded[name]; got.Ne(want) {
				t.Errorf("%s: demanded bits for %%%s differ: seeded %v, unseeded %v\n%s", e.Name, name, got, want, e.F)
			}
		}
	}
}

// TestSeedPrunesQueries checks the seed actually saves solver work where
// it should: a constant-output expression needs zero known-bits queries
// beyond the feasibility check.
func TestSeedPrunesQueries(t *testing.T) {
	f := ir.MustParse("%x:i32 = var\n%0:i32 = and %x, 0:i32\ninfer %0")
	e := solver.NewSAT(f, 0)
	sd := ComputeSeed(f)
	if !sd.Valid || !sd.Known.IsConstant() {
		t.Fatalf("seed did not recognize the constant output: %+v", sd)
	}
	res := KnownBitsSeeded(e, f, sd)
	if !res.Feasible || res.Exhausted {
		t.Fatalf("unexpected outcome: %+v", res.Outcome)
	}
	if !res.Bits.IsConstant() || !res.Bits.Constant().IsZero() {
		t.Fatalf("known bits = %v, want constant 0", res.Bits)
	}
	st := e.Stats()
	if st.Queries != 1 { // the feasibility check
		t.Errorf("queries = %d, want 1 (feasibility only)", st.Queries)
	}
	// A known-zero bit saves the one "can it be 1?" query the unseeded
	// algorithm would pose (it never asks the second question for bits
	// that cannot be 1).
	if st.Pruned != 32 {
		t.Errorf("pruned = %d, want 32", st.Pruned)
	}
}

// TestEnrichFromKnownRefinesOnly checks enrichment only ever tightens the
// seed, and a contradictory meet never invalidates soundness bookkeeping
// (contradictions imply infeasibility, which the algorithms test first).
func TestEnrichFromKnownRefinesOnly(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = or %x, 128:i8\ninfer %0")
	sd := ComputeSeed(f)
	before := sd.Known
	sd.EnrichFromKnown(before, true)
	if !sd.Known.Eq(before) {
		t.Errorf("self-enrichment changed the seed: %v -> %v", before, sd.Known)
	}
	if !sd.Exact {
		t.Error("exact enrichment did not mark the seed exact")
	}
	var inv Seed
	inv.EnrichFromKnown(before, true)
	if inv.Valid {
		t.Error("enriching an invalid seed validated it")
	}
}

// TestSeedNeverFromAnalyzerUnderTest pins the §4.7 masking property: the
// seed must come from the trusted analyzer, so injecting a bug into the
// comparator's analyzer must not change any seeded oracle result. The
// PR12541 srem trigger is the expression whose facts the bug corrupts.
func TestSeedNeverFromAnalyzerUnderTest(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = srem %x, 4:i8\ninfer %0")
	sd := ComputeSeed(f)
	res := AnalyzeAllWith(solver.NewEngine(f, solver.Config{}), f, sd)
	// Brute-force the true known bits.
	var union, inter *apint.Int
	eval.ForEachInput(f, func(env eval.Env) bool {
		v, ok := eval.Eval(f, env)
		if !ok {
			return true
		}
		if union == nil {
			u, i := v, v
			union, inter = &u, &i
		} else {
			u, i := union.Or(v), inter.And(v)
			union, inter = &u, &i
		}
		return true
	})
	if union == nil {
		t.Fatal("expression infeasible")
	}
	one := *inter       // bits one in every output
	zero := union.Not() // bits zero in every output
	if !res.Known.Bits.Zero.Eq(zero) || !res.Known.Bits.One.Eq(one) {
		t.Errorf("seeded known bits %v do not match brute force (zero=%v one=%v)", res.Known.Bits, zero, one)
	}
}

// TestDemandedBitsSeededGen53 runs Algorithm 2 with and without the seed
// on testdata/gen-000053.opt, an expression of the benchmark's Table 1
// corpus. Its "fshr %0, %0, %v3" at i16 takes the amount modulo 16, so
// the seed marks the top 12 bits of %v3 undemanded; unseeded, each of
// them costs one UNSAT miter query (about 30k conflicts together). The
// seeded run must return the same masks with exactly those 12 queries
// skipped and counted as pruned.
func TestDemandedBitsSeededGen53(t *testing.T) {
	src, err := os.ReadFile("testdata/gen-000053.opt")
	if err != nil {
		t.Fatal(err)
	}
	f, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	sd := ComputeSeed(f)
	if got := sd.Demanded["v3"]; got.Ne(apint.New(16, 0x000f)) {
		t.Fatalf("seed demands %s of %%v3, want the low 4 bits", got.BitString())
	}
	plainEng, seededEng := solver.NewSAT(f, 0), solver.NewSAT(f, 0)
	plain := DemandedBits(plainEng, f)
	seeded := DemandedBitsSeeded(seededEng, f, sd)
	if plain.Exhausted || seeded.Exhausted || !plain.Feasible || !seeded.Feasible {
		t.Fatalf("outcomes: unseeded %+v, seeded %+v", plain.Outcome, seeded.Outcome)
	}
	for _, v := range f.Vars {
		if got, want := seeded.Demanded[v.Name], plain.Demanded[v.Name]; got.Ne(want) {
			t.Errorf("%%%s: seeded demands %s, unseeded %s", v.Name, got.BitString(), want.BitString())
		}
	}
	if got := plain.Demanded["v3"]; got.Ne(apint.New(16, 0x000f)) {
		t.Errorf("oracle demands %s of %%v3, want the low 4 bits", got.BitString())
	}
	ps, ss := plainEng.Stats(), seededEng.Stats()
	if d := ps.Queries - ss.Queries; d != 12 {
		t.Errorf("seeded run asked %d queries, unseeded %d: %d fewer, want 12", ss.Queries, ps.Queries, d)
	}
	if d := ss.Pruned - ps.Pruned; d != 12 {
		t.Errorf("seeded run pruned %d queries, unseeded %d: %d more, want 12", ss.Pruned, ps.Pruned, d)
	}
	t.Logf("conflicts: unseeded %d, seeded %d", ps.Conflicts, ss.Conflicts)
}
