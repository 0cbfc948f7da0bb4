package constrange_test

// Exhaustive width-4 soundness tests for every transfer function in
// transfer.go, graded against the concrete image and the AbstractSet
// best-abstraction helper: for EVERY pair of width-4 ranges (wrapped
// ones included — all 241 non-empty ranges, 58k pairs per op) and every
// concrete value pair drawn from them, the transfer output must contain
// the concrete result of each well-defined evaluation. UB evaluations
// (division by zero, MinSigned/-1, shift amounts >= width) are excluded
// from the image, matching the contract stated at the top of transfer.go.

import (
	"slices"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
)

const exW = 4

// allRanges enumerates every non-empty width-w range: each lo != hi pair
// plus Full. The list necessarily includes every wrapped range.
func allRanges(w uint) []constrange.Range {
	var out []constrange.Range
	max := uint64(1) << w
	for lo := uint64(0); lo < max; lo++ {
		for hi := uint64(0); hi < max; hi++ {
			if lo == hi {
				continue
			}
			out = append(out, constrange.New(apint.New(w, lo), apint.New(w, hi)))
		}
	}
	return append(out, constrange.Full(w))
}

// vals materializes a range's members once so the per-pair sweeps stay
// cheap.
func vals(r constrange.Range) []apint.Int {
	var out []apint.Int
	r.ForEach(func(v apint.Int) bool {
		out = append(out, v)
		return true
	})
	return out
}

type binOp struct {
	name string
	tf   func(a, b constrange.Range) constrange.Range
	// op returns (result, well-defined).
	op func(x, y apint.Int) (apint.Int, bool)
}

func defined(f func(x, y apint.Int) apint.Int) func(x, y apint.Int) (apint.Int, bool) {
	return func(x, y apint.Int) (apint.Int, bool) { return f(x, y), true }
}

func shiftOp(f func(x apint.Int, s uint) apint.Int) func(x, y apint.Int) (apint.Int, bool) {
	return func(x, y apint.Int) (apint.Int, bool) {
		if y.Uint64() >= uint64(x.Width()) {
			return apint.Int{}, false // poison, per LLVM shift semantics
		}
		return f(x, uint(y.Uint64())), true
	}
}

var binOps = []binOp{
	{"add", constrange.Range.Add, defined(apint.Int.Add)},
	{"sub", constrange.Range.Sub, defined(apint.Int.Sub)},
	{"mul", constrange.Range.Mul, defined(apint.Int.Mul)},
	{"udiv", constrange.Range.UDiv, func(x, y apint.Int) (apint.Int, bool) {
		if y.IsZero() {
			return apint.Int{}, false
		}
		return x.UDiv(y), true
	}},
	{"urem", constrange.Range.URem, func(x, y apint.Int) (apint.Int, bool) {
		if y.IsZero() {
			return apint.Int{}, false
		}
		return x.URem(y), true
	}},
	{"srem", constrange.Range.SRem, func(x, y apint.Int) (apint.Int, bool) {
		if y.IsZero() {
			return apint.Int{}, false
		}
		return x.SRem(y), true
	}},
	{"shl", constrange.Range.Shl, shiftOp(apint.Int.Shl)},
	{"lshr", constrange.Range.LShr, shiftOp(apint.Int.LShr)},
	{"ashr", constrange.Range.AShr, shiftOp(apint.Int.AShr)},
	{"and", constrange.Range.And, defined(apint.Int.And)},
	{"or", constrange.Range.Or, defined(apint.Int.Or)},
	{"xor", constrange.Range.Xor, defined(apint.Int.Xor)},
	{"umin", constrange.Range.UMin, defined(apint.Int.UMin)},
	{"umax", constrange.Range.UMax, defined(apint.Int.UMax)},
	{"smin", constrange.Range.SMin, defined(apint.Int.SMin)},
	{"smax", constrange.Range.SMax, defined(apint.Int.SMax)},
}

// TestBinaryTransfersSoundExhaustive sweeps every (range, range) pair at
// width 4 through every binary transfer function. The wrapped-range and
// srem/udiv edge cases the transfers special-case (sign splitting,
// divisor ranges straddling zero) are all inside this sweep.
func TestBinaryTransfersSoundExhaustive(t *testing.T) {
	rs := allRanges(exW)
	members := make([][]apint.Int, len(rs))
	for i, r := range rs {
		members[i] = vals(r)
	}
	for _, bo := range binOps {
		bo := bo
		t.Run(bo.name, func(t *testing.T) {
			for i, ra := range rs {
				for j, rb := range rs {
					got := bo.tf(ra, rb)
					for _, x := range members[i] {
						for _, y := range members[j] {
							v, ok := bo.op(x, y)
							if ok && !got.Contains(v) {
								t.Fatalf("%s(%s, %s) = %s does not contain %s %s %s = %s",
									bo.name, ra, rb, got, x, bo.name, y, v)
							}
						}
					}
				}
			}
		})
	}
}

// TestSDivConstSoundExhaustive covers the constant-divisor signed
// division transfer, excluding the UB pairs (zero divisor and the
// MinSigned/-1 overflow, which eval also treats as UB).
func TestSDivConstSoundExhaustive(t *testing.T) {
	rs := allRanges(exW)
	for _, ra := range rs {
		mem := vals(ra)
		for c := uint64(0); c < 1<<exW; c++ {
			cv := apint.New(exW, c)
			if cv.IsZero() {
				continue
			}
			got := ra.SDivConst(cv)
			for _, x := range mem {
				if x.IsMinSigned() && cv.IsAllOnes() {
					continue
				}
				if v := x.SDiv(cv); !got.Contains(v) {
					t.Fatalf("SDivConst(%s, %s) = %s does not contain %s", ra, cv, got, v)
				}
			}
		}
	}
}

// TestUnaryAndCastTransfersSoundExhaustive covers Neg, Not, Abs, and the
// three width-changing casts for every width-4 range.
func TestUnaryAndCastTransfersSoundExhaustive(t *testing.T) {
	rs := allRanges(exW)
	unary := []struct {
		name string
		tf   func(r constrange.Range) constrange.Range
		op   func(x apint.Int) apint.Int
	}{
		{"neg", constrange.Range.Neg, apint.Int.Neg},
		{"not", constrange.Range.Not, apint.Int.Not},
		{"abs", constrange.Range.Abs, apint.Int.AbsValue},
		{"trunc", func(r constrange.Range) constrange.Range { return r.Trunc(2) },
			func(x apint.Int) apint.Int { return x.Trunc(2) }},
		{"zext", func(r constrange.Range) constrange.Range { return r.ZExt(6) },
			func(x apint.Int) apint.Int { return x.ZExt(6) }},
		{"sext", func(r constrange.Range) constrange.Range { return r.SExt(6) },
			func(x apint.Int) apint.Int { return x.SExt(6) }},
	}
	for _, u := range unary {
		u := u
		t.Run(u.name, func(t *testing.T) {
			for _, ra := range rs {
				got := u.tf(ra)
				for _, x := range vals(ra) {
					if v := u.op(x); !got.Contains(v) {
						t.Fatalf("%s(%s) = %s does not contain %s(%s) = %s", u.name, ra, got, u.name, x, v)
					}
				}
			}
		})
	}
}

// TestAbstractSetMinimalCover checks AbstractSet against a brute-force
// minimal circular cover over every non-empty width-4 value set (65535
// subsets): the result must contain every member, and its size must
// equal the minimum over all circular intervals that do. The same set
// given out of order and with every value twice must abstract the same:
// n-way's best transformers pass their outputs as they collected them.
func TestAbstractSetMinimalCover(t *testing.T) {
	const w = exW
	mask := uint64(1)<<w - 1
	for set := uint64(1); set < uint64(1)<<(1<<w); set++ {
		var members []apint.Int
		for x := uint64(0); x <= mask; x++ {
			if set&(1<<x) != 0 {
				members = append(members, apint.New(w, x))
			}
		}
		got := constrange.AbstractSet(w, members)
		mixed := append(slices.Clone(members), members...)
		slices.Reverse(mixed[:len(members)])
		if again := constrange.AbstractSet(w, mixed); !again.Eq(got) {
			t.Fatalf("AbstractSet(%v) = %s, but %s for the same set as %v", members, got, again, mixed)
		}
		for _, v := range members {
			if !got.Contains(v) {
				t.Fatalf("AbstractSet(%v) = %s misses member %s", members, got, v)
			}
		}
		gotSize, _ := got.Size()
		// Brute-force minimal circular cover: try each member as the
		// cover's first element.
		best := uint64(1) << w
		for _, lo := range members {
			span := uint64(0)
			for _, v := range members {
				if d := (v.Uint64() - lo.Uint64()) & mask; d > span {
					span = d
				}
			}
			if span+1 < best {
				best = span + 1
			}
		}
		if gotSize != best {
			t.Fatalf("AbstractSet(%v) = %s has size %d, minimal circular cover has %d",
				members, got, gotSize, best)
		}
	}
}

// TestAbstractSetWrapped pins the wrapped behavior the doc comment
// promises: {15, 0, 1} abstracts to [15,2), not the full range.
func TestAbstractSetWrapped(t *testing.T) {
	got := constrange.AbstractSet(4, []apint.Int{
		apint.New(4, 15), apint.New(4, 0), apint.New(4, 1),
	})
	want := constrange.New(apint.New(4, 15), apint.New(4, 2))
	if !got.Eq(want) {
		t.Fatalf("AbstractSet({15,0,1}) = %s, want %s", got, want)
	}
	if constrange.AbstractSet(4, nil).IsEmpty() != true {
		t.Fatalf("AbstractSet(empty) should be Empty")
	}
	single := constrange.AbstractSet(4, []apint.Int{apint.New(4, 7)})
	if !single.IsSingle() || !single.SingleValue().Eq(apint.New(4, 7)) {
		t.Fatalf("AbstractSet({7}) = %s, want the singleton 7", single)
	}
}
