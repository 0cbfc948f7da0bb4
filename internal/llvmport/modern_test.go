package llvmport

import (
	"fmt"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

func analyzeModern(t *testing.T, src string) *Facts {
	t.Helper()
	an := Analyzer{Modern: true}
	return an.Analyze(ir.MustParse(src))
}

// TestModernFixesPaperImprecisions: the post-LLVM-8 improvements resolve
// several of the §4.2–4.5 examples that LLVM 8 missed.
func TestModernFixesPaperImprecisions(t *testing.T) {
	// §4.2.1 example 1: shl 32, %x now keeps its trailing zeros.
	fa := analyzeModern(t, "%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0")
	if got := fa.KnownBits().String(); got != "xxx00000" {
		t.Errorf("modern shl known bits = %s, want xxx00000", got)
	}

	// §4.2.1 example 2: zext+lshr keeps its leading zeros.
	fa = analyzeModern(t, "%x:i4 = var\n%y:i8 = var\n%0:i8 = zext %x\n%1:i8 = lshr %0, %y\ninfer %1")
	if got := fa.KnownBits().String(); got != "0000xxxx" {
		t.Errorf("modern zext/lshr known bits = %s, want 0000xxxx", got)
	}

	// §4.5 select example: the range becomes the precise [1,0).
	fa = analyzeModern(t, "%x:i32 = var\n%0:i1 = eq 0:i32, %x\n%1:i32 = select %0, 1:i32, %x\ninfer %1")
	if got := fa.Range().String(); got != "[1,0)" {
		t.Errorf("modern select range = %s, want [1,0)", got)
	}

	// §4.3 example 2: x & -x with range-backed non-zero is a power of two.
	fa = analyzeModern(t, "%x:i64 = var (range=[1,0))\n%0:i64 = sub 0:i64, %x\n%1:i64 = and %x, %0\ninfer %1")
	if !fa.PowerOfTwo() {
		t.Error("modern x & -x with non-zero x should be a power of two")
	}

	// The classic analyzer still shows the paper's imprecisions.
	var classic Analyzer
	fc := classic.Analyze(ir.MustParse("%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0"))
	if got := fc.KnownBits().String(); got != "xxxxxxxx" {
		t.Errorf("classic shl known bits = %s, want xxxxxxxx", got)
	}
}

// TestModernStillImprecise: improvements or not, the correlation-dependent
// examples stay imprecise (as they do in real modern LLVM).
func TestModernStillImprecise(t *testing.T) {
	fa := analyzeModern(t, "%x:i8 = var\n%0:i8 = and 1:i8, %x\n%1:i8 = add %x, %0\ninfer %1")
	if got := fa.KnownBits().String(); got != "xxxxxxxx" {
		t.Errorf("add correlation = %s, want xxxxxxxx (needs relational reasoning)", got)
	}
}

// TestModernFactsSound: all Modern facts stay sound over the corpus.
func TestModernFactsSound(t *testing.T) {
	an := Analyzer{Modern: true}
	for _, src := range soundnessCorpus {
		f := ir.MustParse(src)
		fa := an.Analyze(f)
		kb := fa.KnownBits()
		rg := fa.Range()
		sb := fa.NumSignBits()
		nz := fa.NonZero()
		pow2 := fa.PowerOfTwo()
		forAllInputs(t, f, func(env eval.Env, v apint.Int) {
			if !kb.Contains(v) {
				t.Fatalf("%s: modern known bits %v excludes %v", src, kb, v)
			}
			if !rg.Contains(v) {
				t.Fatalf("%s: modern range %v excludes %v", src, rg, v)
			}
			if v.NumSignBits() < sb {
				t.Fatalf("%s: modern sign bits claim %d but %v has %d", src, sb, v, v.NumSignBits())
			}
			if nz && v.IsZero() {
				t.Fatalf("%s: modern non-zero violated", src)
			}
			if pow2 && !v.IsPowerOfTwo() {
				t.Fatalf("%s: modern power-of-two violated by %v", src, v)
			}
		})
	}
}

// TestModernVariableShiftJoinSound checks the shift join exhaustively on
// dedicated shift expressions with constrained amounts.
func TestModernVariableShiftJoinSound(t *testing.T) {
	an := Analyzer{Modern: true}
	srcs := []string{
		"%x:i8 = var\n%y:i8 = var (range=[0,3))\n%0:i8 = shl %x, %y\ninfer %0",
		"%x:i8 = var (range=[16,64))\n%y:i8 = var\n%0:i8 = lshr %x, %y\ninfer %0",
		"%x:i8 = var\n%y:i8 = var (range=[4,8))\n%0:i8 = ashr %x, %y\ninfer %0",
		"%x:i8 = var\n%y:i8 = var\n%0:i8 = shl 32:i8, %y\n%1:i8 = lshr %0, %x\ninfer %1",
	}
	for _, src := range srcs {
		f := ir.MustParse(src)
		kb := an.Analyze(f).KnownBits()
		eval.ForEachInput(f, func(env eval.Env) bool {
			if v, ok := eval.Eval(f, env); ok && !kb.Contains(v) {
				t.Fatalf("%s: %v excludes %v", src, kb, v)
			}
			return true
		})
	}
}

// TestModernFunnelShiftAmountDemanded checks the Modern rotate and
// funnel-shift amount rule exhaustively against eval. At a power-of-two
// width w the amount demands exactly its low log2(w) bits: flipping any
// other amount bit never changes a well-defined output, and each low bit
// changes some output. At other widths, and in the LLVM-8 port at every
// width, every amount bit stays demanded.
func TestModernFunnelShiftAmountDemanded(t *testing.T) {
	for _, c := range []struct {
		op   string
		maxW uint
	}{{"rotl", 8}, {"rotr", 8}, {"fshl", 5}, {"fshr", 5}} {
		for w := uint(1); w <= c.maxW; w++ {
			src := fmt.Sprintf("%%x:i%d = var\n%%s:i%d = var\n%%0:i%d = %s %%x, %%s\ninfer %%0", w, w, w, c.op)
			if c.op == "fshl" || c.op == "fshr" {
				src = fmt.Sprintf("%%a:i%d = var\n%%b:i%d = var\n%%s:i%d = var\n%%0:i%d = %s %%a, %%b, %%s\ninfer %%0",
					w, w, w, w, c.op)
			}
			f := ir.MustParse(src)
			modern := (&Analyzer{Modern: true}).Analyze(f).DemandedBits()
			classic := (&Analyzer{}).Analyze(f).DemandedBits()
			all := apint.AllOnes(w)
			for _, v := range f.Vars {
				if got := classic[v.Name]; got.Ne(all) {
					t.Errorf("%s i%d: LLVM-8 demands %s of %%%s, want every bit", c.op, w, got.BitString(), v.Name)
				}
				if v.Name != "s" {
					if got := modern[v.Name]; got.Ne(all) {
						t.Errorf("%s i%d: Modern demands %s of value operand %%%s, want every bit", c.op, w, got.BitString(), v.Name)
					}
					continue
				}
				want := all
				if w&(w-1) == 0 {
					want = apint.New(w, uint64(w-1))
				}
				got := modern["s"]
				if got.Ne(want) {
					t.Errorf("%s i%d: Modern demands %s of the amount, want %s", c.op, w, got.BitString(), want.BitString())
				}
				for i := uint(0); i < w; i++ {
					changed := false
					eval.ForEachInput(f, func(env eval.Env) bool {
						v1, ok1 := eval.Eval(f, env)
						env[v] = env[v].FlipBit(i)
						v2, ok2 := eval.Eval(f, env)
						env[v] = env[v].FlipBit(i)
						changed = ok1 && ok2 && v1.Ne(v2)
						return !changed
					})
					if changed && !got.Bit(i) {
						t.Errorf("%s i%d: Modern marks amount bit %d undemanded, but flipping it changes the output", c.op, w, i)
					}
					if !changed && got.Bit(i) && w&(w-1) == 0 {
						t.Errorf("%s i%d: amount bit %d never changes the output, but Modern demands it", c.op, w, i)
					}
				}
			}
		}
	}
}
