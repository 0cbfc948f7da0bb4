// Package tnum implements the transfer functions of the eBPF verifier's
// tristate numbers (Vishwanathan, Shachnai, Narayana, Nagarakatte:
// "Sound, Precise, and Fast Abstract Interpretation with Tristate
// Numbers"). A tnum is a value/mask pair in which every bit of a width-w
// integer is known-zero, known-one, or unknown:
//
//	γ(⟨value, mask⟩) = { v : v &^ mask == value }
//
// That is the known-bits lattice of internal/knownbits written another
// way (value = One, mask = the unknown bits), so the suite runs on
// knownbits.Bits and converts at its boundary. What it carries of its own
// is the transfer-function suite: the verified algorithms of the tnum
// paper rather than the LLVM-8 ValueTracking port, which makes the two
// an ideal differential pair in one lattice.
package tnum

import (
	"math/bits"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
)

// Bugs selects deliberately re-broken transfer functions, mirroring
// llvmport.BugConfig: each bug is a realistic, historically shaped defect
// the checkers must catch.
type Bugs struct {
	// MulMask seeds an off-by-one into the mask recurrence of the
	// verified tnum_mul: the uncertain-LSB step accumulates the partial
	// product's uncertainty shifted right by one, so the low bit of each
	// partial product is claimed known when it is not. Unsound from
	// width 1 (x · 1 comes back as the constant 0).
	MulMask bool
}

// Analysis is the tnum abstract interpreter: a per-op transfer-function
// suite over known bits plus a per-instruction DAG walk. The zero value
// is the clean (verified) suite.
type Analysis struct {
	Bugs Bugs
}

// vm returns a conflict-free element in the paper's value/mask form:
// value holds the known-one bits, mask the unknown bits.
func vm(a knownbits.Bits) (value, mask apint.Int) {
	return a.One, a.Zero.Or(a.One).Not()
}

// fromVM converts a well-formed value/mask pair (value & mask == 0)
// back to known bits.
func fromVM(value, mask apint.Int) knownbits.Bits {
	return knownbits.Bits{Zero: value.Or(mask).Not(), One: value}
}

// add is the tnum paper's addition: carry uncertainty is the XOR spread
// between the all-zeros and all-ones completions of the masks.
func add(av, am, bv, bm apint.Int) (value, mask apint.Int) {
	sm := am.Add(bm)
	sv := av.Add(bv)
	sigma := sm.Add(sv)
	chi := sigma.Xor(sv)
	mu := chi.Or(am).Or(bm)
	return sv.And(mu.Not()), mu
}

// Add is the tnum paper's addition.
func Add(a, b knownbits.Bits) knownbits.Bits {
	av, am := vm(a)
	bv, bm := vm(b)
	return fromVM(add(av, am, bv, bm))
}

// Sub is the tnum paper's subtraction.
func Sub(a, b knownbits.Bits) knownbits.Bits {
	av, am := vm(a)
	bv, bm := vm(b)
	dv := av.Sub(bv)
	alpha := dv.Add(am)
	beta := dv.Sub(bm)
	chi := alpha.Xor(beta)
	mu := chi.Or(am).Or(bm)
	return fromVM(dv.And(mu.Not()), mu)
}

// And is exact bitwise conjunction: a bit is zero if either side's is.
func And(a, b knownbits.Bits) knownbits.Bits {
	return knownbits.Bits{Zero: a.Zero.Or(b.Zero), One: a.One.And(b.One)}
}

// Or is exact bitwise disjunction: a bit is one if either side's is.
func Or(a, b knownbits.Bits) knownbits.Bits {
	return knownbits.Bits{Zero: a.Zero.And(b.Zero), One: a.One.Or(b.One)}
}

// Xor is exact bitwise exclusive or.
func Xor(a, b knownbits.Bits) knownbits.Bits {
	av, am := vm(a)
	bv, bm := vm(b)
	mu := am.Or(bm)
	return fromVM(av.Xor(bv).And(mu.Not()), mu)
}

// Mul is the verified long multiplication of the tnum paper (the
// algorithm adopted by the kernel): the certain product of the values
// plus, per LSB of a, a partial-product uncertainty accumulated with
// tnum addition.
func (an Analysis) Mul(a, b knownbits.Bits) knownbits.Bits {
	av, am := vm(a)
	bv, bm := vm(b)
	zero := apint.Zero(a.Width())
	prod := av.Mul(bv)
	accV, accM := zero, zero // the partial products' uncertainty
	for !av.IsZero() || !am.IsZero() {
		if av.Bit(0) {
			// LSB of a is a certain 1: b's uncertainty enters as is.
			accV, accM = add(accV, accM, zero, bm)
		} else if am.Bit(0) {
			// LSB of a is uncertain: the whole partial product is.
			m := bv.Or(bm)
			if an.Bugs.MulMask {
				m = m.LShr(1)
			}
			accV, accM = add(accV, accM, zero, m)
		}
		av, am = av.LShr(1), am.LShr(1)
		bv, bm = bv.Shl(1), bm.Shl(1)
	}
	return fromVM(add(prod, zero, accV, accM))
}

// shiftConst maps every member through a constant shift (exact per-value
// maps, so shifting value and mask componentwise is the best transformer).
func shiftConst(a knownbits.Bits, s uint, shift func(apint.Int, uint) apint.Int) knownbits.Bits {
	v, m := vm(a)
	return fromVM(shift(v, s), shift(m, s))
}

// fromURange abstracts the unsigned interval [lo, hi]: the bits above the
// highest differing position are known, everything below is unknown.
func fromURange(w uint, lo, hi uint64) knownbits.Bits {
	if lo == hi {
		return knownbits.FromConst(apint.New(w, lo))
	}
	d := uint(64 - bits.LeadingZeros64(lo^hi))
	m := uint64(1)<<d - 1
	return fromVM(apint.New(w, lo&^m), apint.New(w, m))
}

// xorConst folds a constant into a tnum exactly (used to bias signed
// comparisons into unsigned ones).
func xorConst(a knownbits.Bits, c apint.Int) knownbits.Bits {
	v, m := vm(a)
	return fromVM(v.Xor(c).And(m.Not()), m)
}

func constBool(b bool) knownbits.Bits {
	if b {
		return knownbits.FromConst(apint.One(1))
	}
	return knownbits.FromConst(apint.Zero(1))
}

// Transfer is the full per-op transfer-function suite for the IR's
// instruction set. Operand tuples that admit no well-defined execution
// produce bottom; ops with no useful tnum transformer fall back to the
// always-sound top.
func (an Analysis) Transfer(op ir.Op, flags ir.Flags, dstW uint, args []knownbits.Bits) knownbits.Bits {
	for _, a := range args {
		if a.HasConflict() {
			return knownbits.Bottom(dstW)
		}
	}
	// All-singleton tuples fold through the concrete semantics exactly;
	// a fold that hits UB/poison means no execution is well defined.
	allConst := true
	for _, a := range args {
		allConst = allConst && a.IsConstant()
	}
	if allConst {
		vals := make([]apint.Int, len(args))
		for i, a := range args {
			vals[i] = a.One
		}
		if v, ok := eval.ConstFold(op, flags, dstW, vals); ok {
			return knownbits.FromConst(v)
		}
		return knownbits.Bottom(dstW)
	}

	w := dstW
	switch op {
	case ir.OpAdd:
		return Add(args[0], args[1])
	case ir.OpSub:
		return Sub(args[0], args[1])
	case ir.OpMul:
		return an.Mul(args[0], args[1])
	case ir.OpAnd:
		return And(args[0], args[1])
	case ir.OpOr:
		return Or(args[0], args[1])
	case ir.OpXor:
		return Xor(args[0], args[1])

	case ir.OpShl:
		return shiftUnion(args[0], args[1], apint.Int.Shl)
	case ir.OpLShr:
		return shiftUnion(args[0], args[1], apint.Int.LShr)
	case ir.OpAShr:
		return shiftUnion(args[0], args[1], apint.Int.AShr)

	case ir.OpRotL:
		return rotUnion(args[0], args[1], apint.Int.RotL)
	case ir.OpRotR:
		return rotUnion(args[0], args[1], apint.Int.RotR)

	case ir.OpZExt:
		v, m := vm(args[0])
		return fromVM(v.ZExt(dstW), m.ZExt(dstW))
	case ir.OpSExt:
		// A known sign bit extends through the value, an unknown one
		// through the mask (value's sign bit is 0 whenever the mask's is
		// set, so extending both componentwise covers both cases).
		v, m := vm(args[0])
		return fromVM(v.SExt(dstW), m.SExt(dstW))
	case ir.OpTrunc:
		v, m := vm(args[0])
		return fromVM(v.Trunc(dstW), m.Trunc(dstW))

	case ir.OpSelect:
		cond, tv, fv := args[0], args[1], args[2]
		if cond.IsConstant() {
			if cond.One.IsOne() {
				return tv
			}
			return fv
		}
		return tv.Join(fv)

	case ir.OpEq, ir.OpNe:
		if args[0].Meet(args[1]).HasConflict() {
			return constBool(op == ir.OpNe)
		}
		return knownbits.Unknown(1)
	case ir.OpULT, ir.OpULE:
		return cmpUnsigned(op, args[0], args[1])
	case ir.OpSLT, ir.OpSLE:
		// Bias by the sign bit: slt(a, b) = ult(a ^ SignBit, b ^ SignBit).
		sb := apint.SignBitValue(args[0].Width())
		if op == ir.OpSLT {
			return cmpUnsigned(ir.OpULT, xorConst(args[0], sb), xorConst(args[1], sb))
		}
		return cmpUnsigned(ir.OpULE, xorConst(args[0], sb), xorConst(args[1], sb))

	case ir.OpUAddO:
		a, b := args[0], args[1]
		switch {
		case !a.UMax().UAddOverflow(b.UMax()):
			return constBool(false)
		case a.UMin().UAddOverflow(b.UMin()):
			return constBool(true)
		}
		return knownbits.Unknown(1)
	case ir.OpUSubO:
		a, b := args[0], args[1]
		switch {
		case a.UMin().UGE(b.UMax()):
			return constBool(false)
		case a.UMax().ULT(b.UMin()):
			return constBool(true)
		}
		return knownbits.Unknown(1)
	case ir.OpUMulO:
		a, b := args[0], args[1]
		switch {
		case !a.UMax().UMulOverflow(b.UMax()):
			return constBool(false)
		case a.UMin().UMulOverflow(b.UMin()):
			return constBool(true)
		}
		return knownbits.Unknown(1)
	case ir.OpSAddO, ir.OpSSubO, ir.OpSMulO:
		return knownbits.Unknown(1)

	case ir.OpUDiv:
		a, b := args[0], args[1]
		if b.UMax().IsZero() {
			return knownbits.Bottom(w) // the divisor is the constant 0: pure UB
		}
		bMin := b.UMin()
		if bMin.IsZero() {
			bMin = apint.One(b.Width())
		}
		return fromURange(w, a.UMin().UDiv(b.UMax()).Uint64(), a.UMax().UDiv(bMin).Uint64())
	case ir.OpURem:
		a, b := args[0], args[1]
		if b.UMax().IsZero() {
			return knownbits.Bottom(w)
		}
		if b.IsConstant() && b.One.IsPowerOfTwo() {
			return And(a, knownbits.FromConst(b.One.Sub(apint.One(w))))
		}
		hi := b.UMax().Sub(apint.One(w)).UMin(a.UMax())
		return fromURange(w, 0, hi.Uint64())
	case ir.OpSDiv, ir.OpSRem:
		return knownbits.Unknown(w)

	case ir.OpCtPop:
		return fromURange(w, uint64(args[0].One.PopCount()), uint64(args[0].UMax().PopCount()))
	case ir.OpCttz:
		a := args[0]
		lo := uint64(a.UMax().CountTrailingZeros())
		hi := uint64(a.Width())
		if !a.One.IsZero() {
			hi = uint64(a.One.CountTrailingZeros())
		}
		return fromURange(w, lo, hi)
	case ir.OpCtlz:
		a := args[0]
		lo := uint64(a.UMax().CountLeadingZeros())
		hi := uint64(a.Width())
		if !a.One.IsZero() {
			hi = uint64(a.One.CountLeadingZeros())
		}
		return fromURange(w, lo, hi)
	case ir.OpBSwap:
		if w%8 == 0 {
			v, m := vm(args[0])
			return fromVM(v.ByteSwap(), m.ByteSwap())
		}
		return knownbits.Unknown(w)
	case ir.OpBitReverse:
		v, m := vm(args[0])
		return fromVM(v.ReverseBits(), m.ReverseBits())

	case ir.OpAbs:
		a := args[0]
		neg := Sub(knownbits.FromConst(apint.Zero(w)), a)
		switch {
		case a.IsNonNegative():
			return a
		case a.IsNegative():
			return neg
		}
		return a.Join(neg)

	case ir.OpUMin:
		a, b := args[0], args[1]
		return a.Join(b).Meet(
			fromURange(w, a.UMin().UMin(b.UMin()).Uint64(), a.UMax().UMin(b.UMax()).Uint64()))
	case ir.OpUMax:
		a, b := args[0], args[1]
		return a.Join(b).Meet(
			fromURange(w, a.UMin().UMax(b.UMin()).Uint64(), a.UMax().UMax(b.UMax()).Uint64()))
	case ir.OpSMin, ir.OpSMax:
		return args[0].Join(args[1])

	case ir.OpFshl, ir.OpFshr:
		return fshUnion(op, args[0], args[1], args[2])
	}
	return knownbits.Unknown(dstW)
}

// shiftUnion is the transformer for shl/lshr/ashr: the union over every
// feasible constant amount below the width (amounts at or above the width
// are poison, so their executions are excluded from the image — a shift
// whose amount tnum admits only oversized values has no defined
// execution at all, and the union stays the empty Bottom it starts from).
func shiftUnion(a, s knownbits.Bits, shift func(apint.Int, uint) apint.Int) knownbits.Bits {
	w := a.Width()
	out := knownbits.Bottom(w)
	for c := uint(0); c < w; c++ {
		if s.Contains(apint.New(s.Width(), uint64(c))) {
			out = out.Join(shiftConst(a, c, shift))
		}
	}
	return out
}

// rotUnion is the transformer for rotl/rotr: amounts wrap modulo the
// width and are never poison; a non-constant amount unions all rotations.
func rotUnion(a, s knownbits.Bits, rot func(apint.Int, uint) apint.Int) knownbits.Bits {
	w := a.Width()
	if s.IsConstant() {
		return shiftConst(a, uint(s.One.Uint64()%uint64(w)), rot)
	}
	out := knownbits.Bottom(w)
	for c := uint(0); c < w; c++ {
		out = out.Join(shiftConst(a, c, rot))
	}
	return out
}

// fshUnion is the transformer for the general funnel shifts: per constant
// amount the result is an Or of two exactly shifted halves; non-constant
// amounts union over all residues modulo the width.
func fshUnion(op ir.Op, a, b, s knownbits.Bits) knownbits.Bits {
	w := a.Width()
	one := func(c uint) knownbits.Bits {
		if c == 0 {
			if op == ir.OpFshl {
				return a
			}
			return b
		}
		if op == ir.OpFshl {
			return Or(shiftConst(a, c, apint.Int.Shl), shiftConst(b, w-c, apint.Int.LShr))
		}
		return Or(shiftConst(a, w-c, apint.Int.Shl), shiftConst(b, c, apint.Int.LShr))
	}
	if s.IsConstant() {
		return one(uint(s.One.Uint64() % uint64(w)))
	}
	out := knownbits.Bottom(w)
	for c := uint(0); c < w; c++ {
		out = out.Join(one(c))
	}
	return out
}

// cmpUnsigned decides ult/ule from the unsigned bounds when possible.
func cmpUnsigned(op ir.Op, a, b knownbits.Bits) knownbits.Bits {
	aMin, aMax := a.UMin(), a.UMax()
	bMin, bMax := b.UMin(), b.UMax()
	if op == ir.OpULT {
		switch {
		case aMax.ULT(bMin):
			return constBool(true)
		case aMin.UGE(bMax):
			return constBool(false)
		}
		return knownbits.Unknown(1)
	}
	switch {
	case aMax.ULE(bMin):
		return constBool(true)
	case aMin.UGT(bMax):
		return constBool(false)
	}
	return knownbits.Unknown(1)
}

// Analyze abstract-interprets f, returning the tnum computed for every
// instruction. Variables seed from their range metadata when it is a
// non-wrapped interval, otherwise from top.
func (an Analysis) Analyze(f *ir.Function) map[*ir.Inst]knownbits.Bits {
	out := make(map[*ir.Inst]knownbits.Bits)
	for _, n := range f.Insts() {
		switch {
		case n.IsConst():
			out[n] = knownbits.FromConst(n.Val)
		case n.IsVar():
			if n.HasRange && n.Lo.ULT(n.Hi) {
				out[n] = fromURange(n.Width, n.Lo.Uint64(), n.Hi.Uint64()-1)
			} else {
				out[n] = knownbits.Unknown(n.Width)
			}
		default:
			args := make([]knownbits.Bits, len(n.Args))
			for i, a := range n.Args {
				args[i] = out[a]
			}
			out[n] = an.Transfer(n.Op, n.Flags, n.Width, args)
		}
	}
	return out
}
