package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

// smallRef is the scalar ground truth for one function: the achievable
// output set and each variable's demanded-bit vector, computed by plain
// per-index interpretation with no bit-slicing involved.
type smallRef struct {
	outputs  map[uint64]bool
	demanded map[*ir.Inst][]bool
}

func smallRefOf(f *ir.Function) smallRef {
	total := eval.TotalInputBits(f)
	evalIdx := func(idx uint64) (uint64, bool) {
		env := make(eval.Env, len(f.Vars))
		bits := idx
		for _, v := range f.Vars {
			env[v] = apint.New(v.Width, bits)
			bits >>= v.Width
		}
		v, ok := eval.Eval(f, env)
		return v.Uint64(), ok
	}
	ref := smallRef{outputs: make(map[uint64]bool), demanded: make(map[*ir.Inst][]bool)}
	for idx := uint64(0); idx < 1<<total; idx++ {
		if v, ok := evalIdx(idx); ok {
			ref.outputs[v] = true
		}
	}
	var off uint
	for _, v := range f.Vars {
		m := make([]bool, v.Width)
		for bit := uint(0); bit < v.Width; bit++ {
			pos := off + bit
			for idx := uint64(0); idx < 1<<total; idx++ {
				if idx>>pos&1 == 1 {
					continue
				}
				a, aok := evalIdx(idx)
				b, bok := evalIdx(idx | 1<<pos)
				if aok && bok && a != b {
					m[bit] = true
					break
				}
			}
		}
		ref.demanded[v] = m
		off += v.Width
	}
	return ref
}

// smallWidthFuncs mirrors the eval-package small-width shapes: whole
// input space inside one 64-lane block, with UB lanes, range-masked
// lanes, and correlated operands in the mix.
func smallWidthFuncs(w uint) map[string]*ir.Function {
	out := map[string]*ir.Function{
		"mul-self": ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%0:i%d = mul %%x, %%x\ninfer %%0", w, w)),
		"udiv-ub":  ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%0:i%d = udiv 1:i%d, %%x\ninfer %%0", w, w, w)),
	}
	if w >= 2 {
		out["range"] = ir.MustParse(fmt.Sprintf("%%x:i%d = var (range=[1,3))\n%%0:i%d = add %%x, %%x\ninfer %%0", w, w))
	}
	if 2*w <= 5 {
		out["two-vars"] = ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%y:i%d = var\n%%0:i%d = urem %%x, %%y\ninfer %%0", w, w, w))
	}
	return out
}

// TestEnumSmallWidthQueries exhaustively checks the enumeration engine's
// whole query surface at widths 1..5 against scalar ground truth. The
// engine's sweeps run bit-sliced with the input space inside a single
// block, so any phantom-lane leak (a masked lane's garbage value entering
// the memoized output set or a demanded-bit matrix) shows up here as a
// wrong query answer.
func TestEnumSmallWidthQueries(t *testing.T) {
	for w := uint(1); w <= 5; w++ {
		for name, f := range smallWidthFuncs(w) {
			name := fmt.Sprintf("w%d/%s", w, name)
			ref := smallRefOf(f)
			e := NewEnum(f)

			feasible, ok := e.Feasible()
			if !ok || feasible != (len(ref.outputs) > 0) {
				t.Fatalf("%s: Feasible = (%v,%v), want (%v,true)", name, feasible, ok, len(ref.outputs) > 0)
			}
			for i := uint(0); i < w; i++ {
				for _, val := range []bool{false, true} {
					want := false
					for v := range ref.outputs {
						if (v>>i&1 == 1) == val {
							want = true
						}
					}
					if got, ok := e.OutputBitCanBe(i, val); !ok || got != want {
						t.Errorf("%s: OutputBitCanBe(%d,%v) = (%v,%v), want (%v,true)", name, i, val, got, ok, want)
					}
				}
			}
			for k := uint(1); k <= w; k++ {
				want := false
				for v := range ref.outputs {
					if apint.New(w, v).NumSignBits() < k {
						want = true
					}
				}
				if got, ok := e.SignBitsViolated(k); !ok || got != want {
					t.Errorf("%s: SignBitsViolated(%d) = (%v,%v), want (%v,true)", name, k, got, ok, want)
				}
			}
			if got, ok := e.CanBeZero(); !ok || got != ref.outputs[0] {
				t.Errorf("%s: CanBeZero = (%v,%v), want (%v,true)", name, got, ok, ref.outputs[0])
			}
			wantNonPow2 := false
			for v := range ref.outputs {
				if !apint.New(w, v).IsPowerOfTwo() {
					wantNonPow2 = true
				}
			}
			if got, ok := e.CanBeNonPowerOfTwo(); !ok || got != wantNonPow2 {
				t.Errorf("%s: CanBeNonPowerOfTwo = (%v,%v), want (%v,true)", name, got, ok, wantNonPow2)
			}

			// Every expressible [lo, lo+size) window over the width,
			// including the wrapped ones (size 0 is the empty window; the
			// full window is not expressible in w bits): a witness must
			// exist iff some achievable value falls outside the window.
			for lo := uint64(0); lo < 1<<w; lo++ {
				for size := uint64(0); size < 1<<w; size++ {
					wantOutside := false
					for v := range ref.outputs {
						hi := (lo + size) & (1<<w - 1)
						inside := false
						if size != 0 {
							if lo < hi {
								inside = v >= lo && v < hi
							} else {
								inside = v >= lo || v < hi
							}
						}
						if !inside {
							wantOutside = true
						}
					}
					wit, found, ok := e.OutputOutside(apint.New(w, lo), apint.New(w, size))
					if !ok || found != wantOutside {
						t.Fatalf("%s: OutputOutside(%d,%d) = (%v,%v), want found=%v", name, lo, size, found, ok, wantOutside)
					}
					if found && !ref.outputs[wit.Uint64()] {
						t.Fatalf("%s: OutputOutside(%d,%d) witness %d is not achievable", name, lo, size, wit.Uint64())
					}
				}
			}

			for _, v := range f.Vars {
				for bit := uint(0); bit < v.Width; bit++ {
					got, ok := e.BitMatters(v, bit)
					if !ok || got != ref.demanded[v][bit] {
						t.Errorf("%s: BitMatters(%%%s,%d) = (%v,%v), want (%v,true)",
							name, v.Name, bit, got, ok, ref.demanded[v][bit])
					}
				}
			}
		}
	}
}

// wellDefinedOutputs lists the output of every well-defined input of f, in
// eval.ForEachInput order, by the scalar interpreter.
func wellDefinedOutputs(f *ir.Function) []uint64 {
	var seq []uint64
	eval.ForEachInput(f, func(env eval.Env) bool {
		if v, ok := eval.Eval(f, env); ok {
			seq = append(seq, v.Uint64())
		}
		return true
	})
	return seq
}

// firstOutside returns the first value of seq outside the wrapped window
// [lo, lo+size) of w-bit values (size 0 is the empty window).
func firstOutside(seq []uint64, w uint, lo, size uint64) (uint64, bool) {
	hi := (lo + size) & apint.AllOnes(w).Uint64()
	for _, v := range seq {
		inside := false
		if size != 0 {
			if lo < hi {
				inside = v >= lo && v < hi
			} else {
				inside = v >= lo || v < hi
			}
		}
		if !inside {
			return v, true
		}
	}
	return 0, false
}

// TestEnumOutsideWitnessOrder pins which counterexample OutputOutside
// returns: the first well-defined output, in eval.ForEachInput order, that
// lies outside the window. Algorithm 3's CEGIS loop chooses between range
// bases of equal size by the samples it has seen, so table1's golden
// ranges depend on this order. Every (lo, size) window is checked at
// widths 1..5, and a sample of windows, wrapping ones and size 0 among
// them, on the cross-check corpus's roots of 16 bits and more.
func TestEnumOutsideWitnessOrder(t *testing.T) {
	check := func(name string, f *ir.Function, windows [][2]uint64) {
		t.Helper()
		w := f.Width()
		seq := wellDefinedOutputs(f)
		e := NewEnum(f)
		for _, win := range windows {
			lo, size := win[0]&apint.AllOnes(w).Uint64(), win[1]&apint.AllOnes(w).Uint64()
			want, wantFound := firstOutside(seq, w, lo, size)
			got, found, ok := e.OutputOutside(apint.New(w, lo), apint.New(w, size))
			if !ok || found != wantFound || (found && got.Uint64() != want) {
				t.Fatalf("%s: OutputOutside(%d, %d) = (%d, %v, %v), want (%d, %v, true)",
					name, lo, size, got.Uint64(), found, ok, want, wantFound)
			}
		}
	}
	for w := uint(1); w <= 5; w++ {
		var all [][2]uint64
		for lo := uint64(0); lo < 1<<w; lo++ {
			for size := uint64(0); size < 1<<w; size++ {
				all = append(all, [2]uint64{lo, size})
			}
		}
		for name, f := range smallWidthFuncs(w) {
			check(fmt.Sprintf("w%d/%s", w, name), f, all)
		}
	}
	rng := rand.New(rand.NewSource(20))
	wide := 0
	for _, src := range crossCheckCorpus {
		f := ir.MustParse(src)
		w := f.Width()
		if w < 16 {
			continue
		}
		wide++
		seq := wellDefinedOutputs(f)
		maxv := apint.AllOnes(w).Uint64()
		pick := func() uint64 { return seq[rng.Intn(len(seq))] }
		windows := [][2]uint64{{0, 0}, {rng.Uint64(), 0}, {0, maxv}, {maxv, maxv}}
		for i := 0; i < 200; i++ {
			switch i % 4 {
			case 0: // from an output, so the first outputs may lie inside
				windows = append(windows, [2]uint64{pick(), rng.Uint64() >> rng.Intn(64)})
			case 1: // spanning two outputs, wrapping when the second is lower
				a, b := pick(), pick()
				windows = append(windows, [2]uint64{a, b - a + uint64(rng.Intn(3))})
			case 2: // wrapping past 2^w
				d := uint64(rng.Intn(1 << 10))
				windows = append(windows, [2]uint64{maxv - d, d + 1 + rng.Uint64()>>rng.Intn(64)})
			default: // anywhere
				windows = append(windows, [2]uint64{rng.Uint64(), rng.Uint64() >> rng.Intn(64)})
			}
		}
		check(src, f, windows)
	}
	if wide < 4 {
		t.Fatalf("only %d cross-check functions have roots of 16 bits or more", wide)
	}
}
