package eval_test

import (
	"fmt"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

// smallWidthFuncs builds, for one width w, expression shapes whose whole
// input space fits inside a single 64-lane block: the regime where
// EvalIndexed must mask out the phantom lanes at indices ≥ 2^total,
// which otherwise duplicate the low lanes' input patterns (LaneIndex
// planes repeat with period 2^total) and would leak duplicate — or, on
// UB-carrying expressions, garbage — values into any output-set sweep.
func smallWidthFuncs(w uint) map[string]*ir.Function {
	out := map[string]*ir.Function{
		"mul-self": ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%0:i%d = mul %%x, %%x\ninfer %%0", w, w)),
		"udiv-ub":  ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%0:i%d = udiv 1:i%d, %%x\ninfer %%0", w, w, w)),
		"addnsw":   ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%0:i%d = addnsw %%x, 1:i%d\ninfer %%0", w, w, w)),
	}
	if w >= 2 {
		out["range"] = ir.MustParse(fmt.Sprintf("%%x:i%d = var (range=[1,3))\n%%0:i%d = add %%x, %%x\ninfer %%0", w, w))
	}
	if 2*w <= 5 {
		out["two-vars"] = ir.MustParse(fmt.Sprintf("%%x:i%d = var\n%%y:i%d = var\n%%0:i%d = urem %%x, %%y\ninfer %%0", w, w, w))
	}
	return out
}

// TestEvalIndexedSmallWidthMasking exhaustively checks widths 1..5: the
// ok mask must cover exactly the lanes below 2^total that the scalar
// interpreter accepts — never a phantom lane above the input space — and
// the set of values gathered from ok lanes must equal the scalar
// enumeration's achievable-output set exactly.
func TestEvalIndexedSmallWidthMasking(t *testing.T) {
	for w := uint(1); w <= 5; w++ {
		for name, f := range smallWidthFuncs(w) {
			name := fmt.Sprintf("w%d/%s", w, name)
			total := eval.TotalInputBits(f)
			if total >= 6 {
				t.Fatalf("%s: %d input bits does not fit one block", name, total)
			}
			sp := eval.CompileSliced(f)
			if got, want := sp.NumLanes(), uint(1)<<total; got != want {
				t.Errorf("%s: NumLanes = %d, want %d", name, got, want)
			}
			planes, ok := sp.EvalIndexed(0)
			if hi := ok >> (1 << total); hi != 0 {
				t.Errorf("%s: phantom lanes above 2^%d leaked into the ok mask: %#x", name, total, ok)
			}

			var vals [64]uint64
			eval.Lanes(planes, &vals)
			env := make(eval.Env, len(f.Vars))
			wantSet := make(map[uint64]bool)
			for idx := uint64(0); idx < 1<<total; idx++ {
				bits := idx
				for _, v := range f.Vars {
					env[v] = apint.New(v.Width, bits)
					bits >>= v.Width
				}
				want, wantOK := eval.Eval(f, env)
				if gotOK := ok>>idx&1 == 1; gotOK != wantOK {
					t.Fatalf("%s: input %#x: sliced ok=%v, scalar ok=%v", name, idx, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				wantSet[want.Uint64()] = true
				if got := vals[idx]; got != want.Uint64() {
					t.Fatalf("%s: input %#x: sliced %#x, scalar %#x", name, idx, got, want.Uint64())
				}
			}

			gotSet := make(map[uint64]bool)
			for m := ok; m != 0; m &= m - 1 {
				l := uint(0)
				for ; m>>l&1 == 0; l++ {
				}
				gotSet[vals[l]] = true
			}
			if len(gotSet) != len(wantSet) {
				t.Fatalf("%s: output set %v, scalar set %v", name, gotSet, wantSet)
			}
			for v := range wantSet {
				if !gotSet[v] {
					t.Fatalf("%s: achievable value %#x missing from sliced output set", name, v)
				}
			}
		}
	}
}

// TestEvalIndexedZeroInputBits: a constant expression has a one-lane
// input space; the other 63 lanes must be masked.
func TestEvalIndexedZeroInputBits(t *testing.T) {
	f := ir.MustParse("%0:i4 = add 3:i4, 6:i4\ninfer %0")
	sp := eval.CompileSliced(f)
	if got := sp.NumLanes(); got != 1 {
		t.Fatalf("NumLanes = %d, want 1", got)
	}
	planes, ok := sp.EvalIndexed(0)
	if ok != 1 {
		t.Fatalf("ok mask = %#x, want exactly lane 0", ok)
	}
	var vals [64]uint64
	eval.Lanes(planes, &vals)
	if got := vals[0]; got != 9 {
		t.Fatalf("lane 0 = %d, want 9", got)
	}
}
