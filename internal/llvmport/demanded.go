package llvmport

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
)

// DemandedBits ports LLVM's DemandedBits analysis (DemandedBits.cpp as of
// LLVM 8): a backward pass computing, per input variable, which bits can
// affect the function's result. A clear bit means "not demanded": forcing
// it to either value never changes the output.
//
// Coverage mirrors LLVM 8's determineLiveOperandBits: bitwise logic,
// add/sub (everything at or below the highest live bit), constant-amount
// shifts, casts, bswap/bitreverse, and the bit-counting intrinsics'
// operands. Unhandled instructions — comparisons, division, remainder,
// select, variable-amount shifts, rotates and funnel shifts — demand
// every operand bit, which is exactly why the paper's §4.4 examples
// ("icmp slt %x, 0" and "udiv %x, 1000") come out fully demanded in LLVM.
//
// The Modern analyzer adds one later DemandedBits rule: a rotate or
// funnel shift at a power-of-two width w takes its amount modulo w, so
// the amount operand demands only its low log2(w) bits (none at i1).
// Their other operands, and every operand at other widths, stay fully
// demanded.
func (fa *Facts) DemandedBits() map[string]apint.Int {
	demanded := fa.InstDemandedBits()
	out := make(map[string]apint.Int, len(fa.f.Vars))
	for _, v := range fa.f.Vars {
		d, ok := demanded[v]
		if !ok {
			d = apint.Zero(v.Width)
		}
		out[v.Name] = d
	}
	return out
}

// InstDemandedBits returns the demanded mask of every instruction in the
// function (the union over its users' operand demands; the root is fully
// demanded). The optimizer's bit-level DCE consumes this.
func (fa *Facts) InstDemandedBits() map[*ir.Inst]apint.Int {
	demanded := make(map[*ir.Inst]apint.Int)
	insts := fa.f.Insts()
	// The root is fully demanded; walk users before operands (reverse
	// topological order).
	demanded[fa.f.Root] = apint.AllOnes(fa.f.Root.Width)
	for i := len(insts) - 1; i >= 0; i-- {
		n := insts[i]
		aOut, ok := demanded[n]
		if !ok {
			continue // dead (unreachable from root)
		}
		for argIdx, arg := range n.Args {
			ab := fa.operandDemanded(n, aOut, argIdx)
			if cur, ok := demanded[arg]; ok {
				ab = ab.Or(cur)
			}
			demanded[arg] = ab
		}
	}
	return demanded
}

// operandDemanded is determineLiveOperandBits: given the demanded bits
// aOut of instruction n, return the demanded bits of operand argIdx.
func (fa *Facts) operandDemanded(n *ir.Inst, aOut apint.Int, argIdx int) apint.Int {
	arg := n.Args[argIdx]
	all := apint.AllOnes(arg.Width)
	if aOut.IsZero() {
		return apint.Zero(arg.Width)
	}

	switch n.Op {
	case ir.OpAnd:
		// A bit of X is demanded only where the result is demanded and
		// the other operand is not known zero there.
		other := fa.known[n.Args[1-argIdx]]
		return aOut.And(other.Zero.Not())
	case ir.OpOr:
		other := fa.known[n.Args[1-argIdx]]
		return aOut.And(other.One.Not())
	case ir.OpXor:
		return aOut
	case ir.OpAdd, ir.OpSub:
		// Carries only flow upward: bits at or below the highest
		// demanded bit matter. nsw/nuw make overflow observable, so
		// flags demand everything.
		if n.Flags != 0 {
			return all
		}
		return lowOnes(n.Width, activeBits(aOut))
	case ir.OpMul:
		if n.Flags != 0 {
			return all
		}
		return lowOnes(n.Width, activeBits(aOut))
	case ir.OpShl:
		if c, ok := constantOf(n.Args[1]); ok && c.Uint64() < uint64(n.Width) && argIdx == 0 && n.Flags == 0 {
			return aOut.LShr(uint(c.Uint64()))
		}
		return all
	case ir.OpLShr:
		if c, ok := constantOf(n.Args[1]); ok && c.Uint64() < uint64(n.Width) && argIdx == 0 && n.Flags == 0 {
			return aOut.Shl(uint(c.Uint64()))
		}
		return all
	case ir.OpAShr:
		if c, ok := constantOf(n.Args[1]); ok && c.Uint64() < uint64(n.Width) && argIdx == 0 && n.Flags == 0 {
			s := uint(c.Uint64())
			ab := aOut.Shl(s)
			// If any of the top s result bits are demanded, the sign
			// bit is demanded (it replicates into them).
			if !aOut.LShr(n.Width-s).IsZero() && s > 0 {
				ab = ab.SetBit(n.Width - 1)
			}
			return ab
		}
		return all
	case ir.OpZExt:
		return aOut.Trunc(arg.Width)
	case ir.OpSExt:
		ab := aOut.Trunc(arg.Width)
		// Demanded extension bits demand the source sign bit.
		if !aOut.LShr(arg.Width).IsZero() {
			ab = ab.SetBit(arg.Width - 1)
		}
		return ab
	case ir.OpTrunc:
		return aOut.ZExt(arg.Width)
	case ir.OpBSwap:
		return aOut.ByteSwap()
	case ir.OpBitReverse:
		return aOut.ReverseBits()
	case ir.OpRotL, ir.OpRotR, ir.OpFshl, ir.OpFshr:
		// Upstream LLVM, after LLVM 8: "shift amount is modulo the
		// bitwidth; for powers of two, SA % BW == SA & (BW-1)". The
		// amount is the last operand.
		if fa.an.Modern && argIdx == len(n.Args)-1 && n.Width&(n.Width-1) == 0 {
			return apint.New(arg.Width, uint64(n.Width-1))
		}
		return all
	}
	// icmp, select, div/rem, ctpop/cttz/ctlz, variable shifts: not
	// handled by LLVM 8 — all bits demanded.
	return all
}

// activeBits returns the position above the highest set bit (LLVM's
// APInt::getActiveBits).
func activeBits(v apint.Int) uint {
	return v.Width() - v.CountLeadingZeros()
}
