// Package knownbits implements the known-bits abstract domain: for each bit
// position, a value is known zero, known one, or unknown. This is the
// domain of LLVM's computeKnownBits and of the paper's Algorithm 1, and the
// lattice of the paper's Figure 2 (a cross product of per-bit three-point
// semilattices, which is what makes bit-by-bit oracle search maximally
// precise — the separability argument of §3.3.1).
package knownbits

import (
	"strings"

	"dfcheck/internal/apint"
)

// Bits is a known-bits fact for a value of a fixed width, in LLVM's
// representation: Zero has a bit set where the value is known to be 0, One
// where it is known to be 1. A position set in both is a conflict (bottom:
// no concrete value satisfies the fact).
type Bits struct {
	Zero apint.Int
	One  apint.Int
}

// Unknown returns the top element: nothing known.
func Unknown(w uint) Bits {
	return Bits{Zero: apint.Zero(w), One: apint.Zero(w)}
}

// Bottom returns the canonical empty element: every bit claimed both zero
// and one. It is the identity of Join, so a union over no members stays
// Bottom.
func Bottom(w uint) Bits {
	return Bits{Zero: apint.AllOnes(w), One: apint.AllOnes(w)}
}

// Abstract returns α(vs), the most precise fact containing every value of
// vs: the bits on which all of them agree. The empty set gives Bottom.
func Abstract(w uint, vs []apint.Int) Bits {
	k := Bottom(w)
	for _, v := range vs {
		k = k.Join(FromConst(v))
	}
	return k
}

// Enum enumerates every conflict-free fact at width w, 3^w of them,
// stopping early if fn returns false. It runs a ternary counter with bit
// 0 as its lowest digit, each digit in the order known zero, known one,
// unknown.
func Enum(w uint, fn func(Bits) bool) {
	digits := make([]byte, w)
	for {
		var zero, one uint64
		for i, d := range digits {
			switch d {
			case 0:
				zero |= 1 << uint(i)
			case 1:
				one |= 1 << uint(i)
			}
		}
		if !fn(Bits{Zero: apint.New(w, zero), One: apint.New(w, one)}) {
			return
		}
		i := 0
		for ; i < len(digits); i++ {
			if digits[i] < 2 {
				digits[i]++
				break
			}
			digits[i] = 0
		}
		if i == len(digits) {
			return
		}
	}
}

// FromConst returns the exact fact for a constant.
func FromConst(v apint.Int) Bits {
	return Bits{Zero: v.Not(), One: v}
}

// Make builds a fact from explicit zero/one masks.
func Make(zero, one apint.Int) Bits {
	if zero.Width() != one.Width() {
		panic("knownbits: mask width mismatch")
	}
	return Bits{Zero: zero, One: one}
}

// Parse reads the paper's notation: a string of '0', '1', 'x' characters,
// most significant bit first (e.g. "xxx00000").
func Parse(s string) Bits {
	w := uint(len(s))
	zero, one := apint.Zero(w), apint.Zero(w)
	for i, c := range s {
		bit := w - 1 - uint(i)
		switch c {
		case '0':
			zero = zero.SetBit(bit)
		case '1':
			one = one.SetBit(bit)
		case 'x', 'X', '?':
			// unknown
		default:
			panic("knownbits: bad character " + string(c))
		}
	}
	return Bits{Zero: zero, One: one}
}

// Width returns the fact's bit width.
func (k Bits) Width() uint { return k.Zero.Width() }

// HasConflict reports whether some bit is claimed both zero and one.
func (k Bits) HasConflict() bool { return !k.Zero.And(k.One).IsZero() }

// IsUnknown reports whether nothing is known.
func (k Bits) IsUnknown() bool { return k.Zero.IsZero() && k.One.IsZero() }

// IsConstant reports whether every bit is known (and consistent).
func (k Bits) IsConstant() bool {
	return !k.HasConflict() && k.Zero.Or(k.One).IsAllOnes()
}

// Constant returns the single concrete value of a fully-known fact.
func (k Bits) Constant() apint.Int {
	if !k.IsConstant() {
		panic("knownbits: Constant on non-constant fact")
	}
	return k.One
}

// NumKnown returns how many bits are known; the paper's precision measure.
func (k Bits) NumKnown() uint { return k.Zero.Or(k.One).PopCount() }

// Contains reports whether concrete value v is consistent with the fact;
// the soundness criterion of §2.2.
func (k Bits) Contains(v apint.Int) bool {
	return v.And(k.Zero).IsZero() && v.Not().And(k.One).IsZero()
}

// Join returns the least upper bound: what is known in both facts and
// agrees. This is LLVM's KnownBits::commonBits / intersectWith, and the
// lattice join of Figure 2.
func (k Bits) Join(o Bits) Bits {
	return Bits{Zero: k.Zero.And(o.Zero), One: k.One.And(o.One)}
}

// Meet combines two facts about the same value, keeping everything known in
// either (LLVM's unionWith). Conflicting claims yield a conflict fact.
func (k Bits) Meet(o Bits) Bits {
	return Bits{Zero: k.Zero.Or(o.Zero), One: k.One.Or(o.One)}
}

// AtLeastAsPreciseAs reports k ⊑ o: everything o knows, k also knows with
// the same polarity. Facts with conflicts are maximal precision (bottom).
func (k Bits) AtLeastAsPreciseAs(o Bits) bool {
	if k.HasConflict() {
		return true
	}
	return o.Zero.And(k.Zero.Not()).IsZero() && o.One.And(k.One.Not()).IsZero()
}

// Eq reports exact equality of facts.
func (k Bits) Eq(o Bits) bool { return k.Zero.Eq(o.Zero) && k.One.Eq(o.One) }

// KnownBit reports the state of bit i: (known, value).
func (k Bits) KnownBit(i uint) (known, one bool) {
	switch {
	case k.Zero.Bit(i):
		return true, false
	case k.One.Bit(i):
		return true, true
	}
	return false, false
}

// IsNonNegative reports whether the sign bit is known zero.
func (k Bits) IsNonNegative() bool { return k.Zero.Bit(k.Width() - 1) }

// IsNegative reports whether the sign bit is known one.
func (k Bits) IsNegative() bool { return k.One.Bit(k.Width() - 1) }

// UMax returns the largest unsigned value consistent with the fact
// (unknown bits set to one).
func (k Bits) UMax() apint.Int { return k.Zero.Not() }

// UMin returns the smallest unsigned value consistent with the fact
// (unknown bits cleared).
func (k Bits) UMin() apint.Int { return k.One }

// CountMinTrailingZeros returns the number of low bits known to be zero.
func (k Bits) CountMinTrailingZeros() uint {
	n := k.Zero.Not().CountTrailingZeros()
	if n > k.Width() {
		return k.Width()
	}
	return n
}

// CountMinLeadingZeros returns the number of high bits known to be zero.
func (k Bits) CountMinLeadingZeros() uint { return k.Zero.Not().CountLeadingZeros() }

// CountMinLeadingOnes returns the number of high bits known to be one.
func (k Bits) CountMinLeadingOnes() uint { return k.One.CountLeadingOnes() }

// CountMaxTrailingZeros returns an upper bound on trailing zeros (bits not
// known one).
func (k Bits) CountMaxTrailingZeros() uint {
	if k.One.IsZero() {
		return k.Width()
	}
	return k.One.CountTrailingZeros()
}

// String renders the fact in the paper's msb-first notation, e.g.
// "xxx00000"; conflicted positions render as '!'.
func (k Bits) String() string {
	var sb strings.Builder
	w := k.Width()
	for i := uint(0); i < w; i++ {
		bit := w - 1 - i
		z, o := k.Zero.Bit(bit), k.One.Bit(bit)
		switch {
		case z && o:
			sb.WriteByte('!')
		case z:
			sb.WriteByte('0')
		case o:
			sb.WriteByte('1')
		default:
			sb.WriteByte('x')
		}
	}
	return sb.String()
}

// ForEach enumerates every concrete value consistent with the fact, calling
// fn until it returns false. The number of values is 2^(unknown bits);
// callers must ensure that is acceptable.
func (k Bits) ForEach(fn func(v apint.Int) bool) {
	if k.HasConflict() {
		return
	}
	w := k.Width()
	unknown := k.Zero.Or(k.One).Not()
	// Iterate subsets of the unknown mask with the standard trick.
	sub := apint.Zero(w)
	for {
		if !fn(k.One.Or(sub)) {
			return
		}
		// next subset
		sub = sub.Sub(unknown).And(unknown)
		if sub.IsZero() {
			return
		}
	}
}
