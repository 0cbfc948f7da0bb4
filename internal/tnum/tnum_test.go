package tnum

import (
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
)

// gammaMask returns γ(t) as a bitset (width ≤ 6, so 2^w ≤ 64 values).
func gammaMask(t knownbits.Bits) uint64 {
	var out uint64
	for x, max := uint64(0), uint64(1)<<t.Width(); x < max; x++ {
		if t.Contains(apint.New(t.Width(), x)) {
			out |= 1 << x
		}
	}
	return out
}

func enumAll(w uint) []knownbits.Bits {
	var out []knownbits.Bits
	knownbits.Enum(w, func(t knownbits.Bits) bool { out = append(out, t); return true })
	return out
}

// TestMulGroundTruth pins the verified tnum_mul against the naive
// γ-enumeration ground truth at every width up to 6 (the paper's own
// evaluation methodology): for every pair of tnums the concrete product
// image must be contained in the abstract product (soundness), and the
// per-width count of maximally precise pairs is pinned so any change to
// the algorithm's precision profile is caught.
func TestMulGroundTruth(t *testing.T) {
	// Precise-pair counts for the verified algorithm, width 1..6.
	wantPrecise := map[uint]int{1: 9, 2: 81, 3: 713, 4: 6262, 5: 55114, 6: 487732}
	an := Analysis{}
	for w := uint(1); w <= 6; w++ {
		es := enumAll(w)
		precise := 0
		for _, a := range es {
			for _, b := range es {
				got := an.Mul(a, b)
				var image uint64
				for _, va := range gammaVals(a) {
					for _, vb := range gammaVals(b) {
						image |= 1 << va.Mul(vb).Uint64()
					}
				}
				gotSet := gammaMask(got)
				if image&^gotSet != 0 {
					t.Fatalf("w=%d: mul(%s, %s) = %s misses concrete products (image %b, γ %b)",
						w, a, b, got, image, gotSet)
				}
				// α(image) ⊑ got always holds for a sound transfer; count
				// the pairs where the two coincide.
				if gotSet == image|alphaMask(w, image) {
					precise++
				}
			}
		}
		if want, ok := wantPrecise[w]; ok && precise != want {
			t.Errorf("w=%d: %d maximally precise pairs, want %d", w, precise, want)
		}
	}
}

// alphaMask returns γ(α(image)) for a non-empty image bitset.
func alphaMask(w uint, image uint64) uint64 {
	var vs []apint.Int
	for x := uint64(0); x < uint64(1)<<w; x++ {
		if image&(1<<x) != 0 {
			vs = append(vs, apint.New(w, x))
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return gammaMask(knownbits.Abstract(w, vs))
}

func gammaVals(t knownbits.Bits) []apint.Int {
	var out []apint.Int
	for x, max := uint64(0), uint64(1)<<t.Width(); x < max; x++ {
		if v := apint.New(t.Width(), x); t.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// TestMulBugCaught: the seeded mask-recurrence off-by-one must be
// unsound already at width 1 — x · 1 comes back as the constant 0.
func TestMulBugCaught(t *testing.T) {
	buggy := Analysis{Bugs: Bugs{MulMask: true}}
	got := buggy.Mul(knownbits.Unknown(1), knownbits.FromConst(apint.One(1)))
	if got.Contains(apint.One(1)) {
		t.Fatalf("buggy mul(x, 1) = %s still contains 1; the seeded bug is not observable", got)
	}
	if clean := (Analysis{}).Mul(knownbits.Unknown(1), knownbits.FromConst(apint.One(1))); !clean.Contains(apint.One(1)) {
		t.Fatalf("clean mul(x, 1) = %s is unsound", clean)
	}
}

// TestTransferSoundnessExhaustive grades the whole transfer suite
// against the enumerated concrete image at widths 1..3: no concrete
// result of a well-defined execution may escape the abstract output, and
// a bottom output is only allowed when no execution is well defined.
func TestTransferSoundnessExhaustive(t *testing.T) {
	an := Analysis{}
	for w := uint(1); w <= 3; w++ {
		for _, op := range ir.AllOps() {
			if op == ir.OpBSwap {
				continue // byte widths only
			}
			valid := op.ValidFlags()
			for flags := ir.Flags(0); flags < 8; flags++ {
				if flags&^valid != 0 {
					continue
				}
				if op.IsCast() {
					for small := uint(1); small < w; small++ {
						if op == ir.OpTrunc {
							checkOp(t, an, op, flags, w, small, []uint{w})
						} else {
							checkOp(t, an, op, flags, small, w, []uint{small})
						}
					}
					continue
				}
				dstW := w
				if op.HasBoolResult() {
					dstW = 1
				}
				ws := make([]uint, op.Arity())
				for i := range ws {
					ws[i] = w
				}
				if op == ir.OpSelect {
					ws[0] = 1
				}
				checkOp(t, an, op, flags, w, dstW, ws)
			}
		}
	}
}

func checkOp(t *testing.T, an Analysis, op ir.Op, flags ir.Flags, w, dstW uint, ws []uint) {
	t.Helper()
	lists := make([][]knownbits.Bits, len(ws))
	for i, opw := range ws {
		lists[i] = enumAll(opw)
	}
	idx := make([]int, len(ws))
	args := make([]knownbits.Bits, len(ws))
	vals := make([]apint.Int, len(ws))
	for {
		for i := range idx {
			args[i] = lists[i][idx[i]]
		}
		got := an.Transfer(op, flags, dstW, args)
		var image uint64
		live := false
		var walk func(i int)
		walk = func(i int) {
			if i == len(args) {
				if v, ok := eval.ConstFold(op, flags, dstW, vals); ok {
					live = true
					image |= 1 << v.Uint64()
				}
				return
			}
			for _, v := range gammaVals(args[i]) {
				vals[i] = v
				walk(i + 1)
			}
		}
		walk(0)
		if live {
			if got.HasConflict() {
				t.Fatalf("%s%s i%d→i%d on %v: live tuple graded bottom", op, flags, w, dstW, args)
			}
			if image&^gammaMask(got) != 0 {
				t.Fatalf("%s%s i%d→i%d on %v: output %s misses image %b", op, flags, w, dstW, args, got, image)
			}
		}
		// Advance the odometer.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(lists[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
