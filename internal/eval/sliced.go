package eval

import (
	"fmt"
	"math/bits"
	"slices"

	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
)

// This file implements the transposed, bit-sliced execution mode: 64
// concrete input environments are evaluated per call, with each IR value
// held as `width` machine words — word i carries bit i of all 64 lanes —
// so every plane operation acts on 64 environments at once. Per-lane
// well-definedness is tracked in a single 64-bit mask with exactly the
// rules of the scalar interpreter (div-by-zero, poison wraps, oversized
// shifts, range metadata); a lane whose bit is clear in the mask carries a
// meaningless value, just like Eval's ok=false.
//
// The enumeration sweeps (Outputs, which solver.EnumEngine and nway's
// exact variant share; solver's demanded-bits sweep; absint's concrete
// tables) use EvalIndexed: because ForEachInput packs the input vector
// LSB-first into the sweep index, an aligned 64-lane block needs no input
// transpose at all — plane i of a variable is either one of six fixed
// alternating masks (index bits 0..5, which vary within the block) or a
// constant all-zeros/all-ones word taken from the block base. Only the
// output is transposed back, a block at a time (Lanes). EvalPlanes takes
// arbitrary input planes instead, for callers that draw their own lanes
// (solver's demanded-bits sampler).

// LaneIndex[k] has bit l set iff bit k of the lane number l is set: the
// input planes of an aligned block, precomputed once for all sweeps.
var LaneIndex = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// SlicedProgram is a Function compiled for 64-lane bit-sliced evaluation.
// It reuses internal scratch across calls and is not safe for concurrent
// use; compile one per goroutine.
type SlicedProgram struct {
	f        *ir.Function
	code     []progInst
	vals     [][]uint64 // per slot: Width planes
	varSlots []int      // slot of each f.Vars entry, in declaration order
	total    uint       // summed input width (the packed-index bit count)

	// Scratch planes for the op kernels; each holds 2w+1 planes for the
	// function's widest value w (the widest intermediate is a
	// double-width product).
	t0, t1, t2, t3, t4, t5, t6, t7 []uint64
}

// progInst is one instruction of a SlicedProgram, in topological order.
type progInst struct {
	n          *ir.Inst
	a0, a1, a2 int // operand slots in vals (unused trail left at 0)
}

// CompileSliced builds the bit-sliced evaluation program for f.
func CompileSliced(f *ir.Function) *SlicedProgram {
	order := f.Insts()
	slot := make(map[*ir.Inst]int, len(order))
	code := make([]progInst, len(order))
	vals := make([][]uint64, len(order))
	for i, n := range order {
		slot[n] = i
		pc := progInst{n: n}
		switch len(n.Args) {
		case 3:
			pc.a2 = slot[n.Args[2]]
			fallthrough
		case 2:
			pc.a1 = slot[n.Args[1]]
			fallthrough
		case 1:
			pc.a0 = slot[n.Args[0]]
		}
		code[i] = pc
		vals[i] = make([]uint64, n.Width)
	}
	p := &SlicedProgram{f: f, code: code, vals: vals, total: TotalInputBits(f)}
	p.varSlots = make([]int, len(f.Vars))
	for i, v := range f.Vars {
		p.varSlots[i] = slot[v]
	}
	var maxW uint // the widest value; operands are values too
	for _, n := range order {
		maxW = max(maxW, n.Width)
	}
	step := 2*maxW + 1
	scratch := make([]uint64, 8*step)
	p.t0, p.t1, p.t2, p.t3 = scratch[:step], scratch[step:2*step], scratch[2*step:3*step], scratch[3*step:4*step]
	p.t4, p.t5, p.t6, p.t7 = scratch[4*step:5*step], scratch[5*step:6*step], scratch[6*step:7*step], scratch[7*step:]
	return p
}

// NumLanes reports how many lanes of an EvalIndexed block are meaningful:
// 64, or the whole (smaller) input space when it fits inside one block.
func (p *SlicedProgram) NumLanes() uint {
	if p.total < 6 {
		return 1 << p.total
	}
	return 64
}

// EvalIndexed evaluates the 64 packed input indices base..base+63 (the
// same LSB-first packing as ForEachInput: variable k occupies the next
// Width bits above variable k-1). base must be 64-aligned; when the whole
// input space is smaller than a block, base must be 0 and only the low
// 2^total lanes are marked ok. Returns the root's planes (valid until the
// next Eval* call) and the well-defined-lane mask.
func (p *SlicedProgram) EvalIndexed(base uint64) ([]uint64, uint64) {
	valid := ^uint64(0)
	if p.total < 6 {
		if base != 0 {
			panic("eval: EvalIndexed base must be 0 when the input space fits one block")
		}
		valid = 1<<(1<<p.total) - 1
	} else if base&63 != 0 {
		panic("eval: EvalIndexed base must be 64-aligned")
	}
	off := uint(0)
	for i, v := range p.f.Vars {
		planes := p.vals[p.varSlots[i]]
		for j := uint(0); j < v.Width; j++ {
			pos := off + j
			switch {
			case pos < 6:
				planes[j] = LaneIndex[pos]
			case base>>pos&1 == 1:
				planes[j] = ^uint64(0)
			default:
				planes[j] = 0
			}
		}
		off += v.Width
	}
	return p.run(valid)
}

// EvalPlanes evaluates 64 lanes whose inputs the caller gives as planes:
// in[k] holds variable k of f.Vars as Width words, word j carrying bit j
// of every lane. Every lane is meaningful. Returns the root's planes
// (valid until the next Eval* call) and the well-defined-lane mask.
func (p *SlicedProgram) EvalPlanes(in [][]uint64) ([]uint64, uint64) {
	if len(in) != len(p.f.Vars) {
		panic(fmt.Sprintf("eval: EvalPlanes of %d variables, want %d", len(in), len(p.f.Vars)))
	}
	for i, v := range p.f.Vars {
		if uint(len(in[i])) != v.Width {
			panic(fmt.Sprintf("eval: %%%s given %d planes, want %d", v.Name, len(in[i]), v.Width))
		}
		copy(p.vals[p.varSlots[i]], in[i])
	}
	return p.run(^uint64(0))
}

// Lanes writes the 64 lane values of a block's planes (at most 64 of
// them, as every root is) into out: out[l] is lane l's value. It copies
// the planes into a 64×64 bit matrix, zero below them, and transposes it
// in place.
func Lanes(planes []uint64, out *[64]uint64) {
	n := copy(out[:], planes)
	clear(out[n:])
	transpose(out, n)
}

// swapMasks[b] selects the columns whose index has bit b clear.
var swapMasks = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// transpose transposes the 64×64 bit matrix m, whose rows at or above
// rows are zero: afterwards bit j of m[i] is what bit i of m[j] was. The
// transpose exchanges bit b of the row index with bit b of the column
// index for every b, and each round below does one such exchange — it
// swaps the off-diagonal halves of every 2^(b+1)-square sub-block — so
// the six rounds commute. The rounds inside the first top rows (the
// power of two at or above rows) run first and touch only those rows;
// each later round j then pairs the j non-zero rows with the zero rows
// j above them. An i8 root costs 68 row-pair swaps instead of 192.
func transpose(m *[64]uint64, rows int) {
	top := 1
	for top < rows {
		top <<= 1
	}
	r, b := 1, 0
	for ; r < top; r, b = r<<1, b+1 {
		mask := swapMasks[b]
		for k := 0; k < top; k = ((k | r) + 1) &^ r {
			t := (m[k]>>uint(r) ^ m[k|r]) & mask
			m[k] ^= t << uint(r)
			m[k|r] ^= t
		}
	}
	for ; r < 64; r, b = r<<1, b+1 {
		mask := swapMasks[b]
		for k := 0; k < r; k++ {
			t := (m[k]>>uint(r) ^ m[k|r]) & mask
			m[k] ^= t << uint(r)
			m[k|r] ^= t
		}
	}
}

// PollBlockMask spaces the stop polls of the block sweeps (Outputs and
// solver's demanded-bits sweep): a sweep polls before every block b > 0
// with b&PollBlockMask == 0, once every 64 blocks (4,096 evaluations).
const PollBlockMask = 63

// outputBitsetWidth is the widest root whose values Outputs dedups
// through a 2^w-bit set (8 KB at 16 bits) rather than a map.
const outputBitsetWidth = 16

// Outputs sweeps the whole input space, one EvalIndexed block at a time,
// and returns the distinct root values of its well-defined executions as
// raw words. With ascending false they come in first-seen order: packed
// input index order, the order ForEachInput enumerates, so the first value
// a caller finds outside some set is the one a scalar enumeration meets
// first. With ascending true they come in ascending unsigned order, read
// off the bitset at roots of at most 16 bits and sorted once above that.
// evals counts the lanes evaluated, 64 per block.
//
// stop, when non-nil, is polled as PollBlockMask says; once it returns
// true the sweep ends and Outputs returns no values and ok false.
func (p *SlicedProgram) Outputs(ascending bool, stop func() bool) (vals []uint64, evals int64, ok bool) {
	w := p.f.Root.Width
	var set []uint64
	var seen map[uint64]struct{}
	if w <= outputBitsetWidth {
		set = make([]uint64, (uint64(1)<<w+63)/64)
	} else {
		seen = make(map[uint64]struct{})
	}
	var lanes [64]uint64
	count := uint64(1) << p.total
	for base := uint64(0); base < count; base += 64 {
		if base > 0 && base>>6&PollBlockMask == 0 && stop != nil && stop() {
			return nil, evals, false
		}
		planes, okm := p.EvalIndexed(base)
		evals += 64
		if okm == 0 {
			continue
		}
		Lanes(planes, &lanes)
		for ; okm != 0; okm &= okm - 1 {
			v := lanes[bits.TrailingZeros64(okm)]
			if set != nil {
				if set[v>>6]>>(v&63)&1 == 1 {
					continue
				}
				set[v>>6] |= 1 << (v & 63)
				if ascending {
					continue // read off the set below
				}
			} else {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
			}
			vals = append(vals, v)
		}
	}
	switch {
	case ascending && set != nil:
		n := 0
		for _, word := range set {
			n += bits.OnesCount64(word)
		}
		vals = make([]uint64, 0, n)
		for i, word := range set {
			for ; word != 0; word &= word - 1 {
				vals = append(vals, uint64(i)<<6|uint64(bits.TrailingZeros64(word)))
			}
		}
	case ascending:
		slices.Sort(vals)
	}
	return vals, evals, true
}

// run executes the compiled code over the current input planes, returning
// the root planes and the ok mask. Lanes drop out of ok exactly when the
// scalar interpreter would return ok=false.
func (p *SlicedProgram) run(valid uint64) ([]uint64, uint64) {
	ok := valid
	root := p.vals[len(p.vals)-1]
	// Range metadata disqualifies lanes before any instruction runs,
	// mirroring the InRange pre-check.
	for i, v := range p.f.Vars {
		if !v.HasRange {
			continue
		}
		ok &= p.rangeMask(p.vals[p.varSlots[i]], v.Lo, v.Hi)
	}
	for ci := range p.code {
		if ok == 0 {
			return root, 0
		}
		pc := &p.code[ci]
		n := pc.n
		dst := p.vals[ci]
		switch n.Op {
		case ir.OpVar:
			continue // planes were set by the caller
		case ir.OpConst:
			constPlanes(dst, n.Val.Uint64())
			continue
		}
		a := p.vals[pc.a0]
		b := p.vals[pc.a1]
		c := p.vals[pc.a2]
		w := uint(len(a)) // operand width (n.Width for most ops)
		switch n.Op {
		case ir.OpAdd:
			carry := addPlanes(dst, a, b)
			if n.Flags&ir.FlagNSW != 0 {
				ok &^= ^(a[w-1] ^ b[w-1]) & (dst[w-1] ^ a[w-1])
			}
			if n.Flags&ir.FlagNUW != 0 {
				ok &^= carry
			}
		case ir.OpSub:
			borrow := subPlanes(dst, a, b)
			if n.Flags&ir.FlagNSW != 0 {
				ok &^= (a[w-1] ^ b[w-1]) & (dst[w-1] ^ a[w-1])
			}
			if n.Flags&ir.FlagNUW != 0 {
				ok &^= borrow
			}
		case ir.OpMul:
			prod := p.t0[:2*w]
			mulPlanes(prod, a, b)
			copy(dst, prod[:w])
			if n.Flags&ir.FlagNUW != 0 {
				ok &^= orPlanes(prod[w:])
			}
			if n.Flags&ir.FlagNSW != 0 {
				ok &^= p.smulOverflow(a, b)
			}
		case ir.OpUDiv:
			rem := p.t1[:w]
			p.udivrem(dst, rem, a, b)
			ok &^= zeroMask(b)
			if n.Flags&ir.FlagExact != 0 {
				ok &^= orPlanes(rem)
			}
		case ir.OpURem:
			quo := p.t1[:w]
			p.udivrem(quo, dst, a, b)
			ok &^= zeroMask(b)
		case ir.OpSDiv, ir.OpSRem:
			sa, sb := a[w-1], b[w-1]
			absA, absB := p.t2[:w], p.t3[:w]
			condNeg(absA, a, sa)
			condNeg(absB, b, sb)
			quo, rem := p.t4[:w], p.t5[:w]
			p.udivrem(quo, rem, absA, absB)
			// UB: zero divisor, or MinSigned / -1.
			minA := a[w-1]
			allB := b[w-1]
			for i := uint(0); i < w-1; i++ {
				minA &^= a[i]
				allB &= b[i]
			}
			ok &^= zeroMask(b) | (minA & allB)
			if n.Op == ir.OpSDiv {
				condNeg(dst, quo, sa^sb)
				if n.Flags&ir.FlagExact != 0 {
					ok &^= orPlanes(rem)
				}
			} else {
				condNeg(dst, rem, sa) // remainder sign follows the dividend
			}
		case ir.OpAnd:
			for i := range dst {
				dst[i] = a[i] & b[i]
			}
		case ir.OpOr:
			for i := range dst {
				dst[i] = a[i] | b[i]
			}
		case ir.OpXor:
			for i := range dst {
				dst[i] = a[i] ^ b[i]
			}
		case ir.OpShl, ir.OpLShr, ir.OpAShr:
			wc := p.t1[:w]
			constPlanes(wc, uint64(w))
			ok &^= ^ultPlanes(b, wc) // shift amount >= width is UB
			copy(dst, a)
			switch n.Op {
			case ir.OpShl:
				shlLanes(dst, b)
				if n.Flags&ir.FlagNUW != 0 || n.Flags&ir.FlagNSW != 0 {
					back := p.t2[:w]
					copy(back, dst)
					if n.Flags&ir.FlagNUW != 0 {
						lshrLanes(back, b)
						ok &^= neqMask(back, a)
					}
					if n.Flags&ir.FlagNSW != 0 {
						copy(back, dst)
						ashrLanes(back, b)
						ok &^= neqMask(back, a)
					}
				}
			case ir.OpLShr:
				lshrLanes(dst, b)
			default:
				ashrLanes(dst, b)
			}
			if n.Op != ir.OpShl && n.Flags&ir.FlagExact != 0 {
				back := p.t2[:w]
				copy(back, dst)
				shlLanes(back, b)
				ok &^= neqMask(back, a)
			}
		case ir.OpEq:
			dst[0] = eqMask(a, b)
		case ir.OpNe:
			dst[0] = ^eqMask(a, b)
		case ir.OpULT:
			dst[0] = ultPlanes(a, b)
		case ir.OpULE:
			dst[0] = ^ultPlanes(b, a)
		case ir.OpSLT:
			dst[0] = sltPlanes(a, b)
		case ir.OpSLE:
			dst[0] = ^sltPlanes(b, a)
		case ir.OpSelect:
			// Mirror the scalar rule cond == 1, not merely "non-zero".
			m := a[0]
			m &^= orPlanes(a[1:])
			for i := range dst {
				dst[i] = (b[i] & m) | (c[i] &^ m)
			}
		case ir.OpZExt:
			copy(dst, a)
			for i := w; i < uint(len(dst)); i++ {
				dst[i] = 0
			}
		case ir.OpSExt:
			copy(dst, a)
			for i := w; i < uint(len(dst)); i++ {
				dst[i] = a[w-1]
			}
		case ir.OpTrunc:
			copy(dst, a[:len(dst)])
		case ir.OpCtPop:
			popCountPlanes(dst, a)
		case ir.OpBSwap:
			for i := uint(0); i < w; i++ {
				byteIdx := i / 8
				dst[i] = a[(w/8-1-byteIdx)*8+i%8]
			}
		case ir.OpBitReverse:
			for i := uint(0); i < w; i++ {
				dst[i] = a[w-1-i]
			}
		case ir.OpCttz:
			// cttz(x) = popcount(^x & (x-1)); cttz(0) = width falls out.
			t := p.t1[:w]
			decPlanes(t, a)
			for i := range t {
				t[i] &^= a[i]
			}
			popCountPlanes(dst, t)
		case ir.OpCtlz:
			rev := p.t2[:w]
			for i := uint(0); i < w; i++ {
				rev[i] = a[w-1-i]
			}
			t := p.t1[:w]
			decPlanes(t, rev)
			for i := range t {
				t[i] &^= rev[i]
			}
			popCountPlanes(dst, t)
		case ir.OpRotL, ir.OpRotR:
			r := p.t1[:w]
			p.modConst(r, b, w)
			if n.Op == ir.OpRotR {
				// rotr by r = rotl by (w - r) mod w; negate-then-mod keeps
				// one rotator. (w - r) mod w with r < w is w-r, or 0 at r=0.
				neg := p.t3[:w]
				constPlanes(neg, uint64(w))
				subPlanes(neg, neg, r)
				nz := orPlanes(r)
				for i := range r {
					r[i] = neg[i] & nz // r==0 stays 0 instead of w
				}
			}
			copy(dst, a)
			p.rotlLanes(dst, r)
		case ir.OpUMin:
			lt := ultPlanes(a, b)
			selectPlanes(dst, lt, a, b)
		case ir.OpUMax:
			lt := ultPlanes(a, b)
			selectPlanes(dst, lt, b, a)
		case ir.OpSMin:
			lt := sltPlanes(a, b)
			selectPlanes(dst, lt, a, b)
		case ir.OpSMax:
			lt := sltPlanes(a, b)
			selectPlanes(dst, lt, b, a)
		case ir.OpAbs:
			condNeg(dst, a, a[w-1])
		case ir.OpFshl, ir.OpFshr:
			// fshl/fshr are the two halves of rotating the 2w-bit concat
			// a:b by s mod w (s == 0 degenerates to a and b respectively).
			r := p.t1[:w]
			p.modConst(r, c, w)
			cat := p.t0[:2*w]
			copy(cat[:w], b)
			copy(cat[w:], a)
			if n.Op == ir.OpFshl {
				p.rotlLanes(cat, r)
				copy(dst, cat[w:])
			} else {
				// rotr of the concat by r: rotl by (2w - r) mod 2w.
				neg := p.t3[:w]
				constPlanes(neg, uint64(2*w))
				subPlanes(neg, neg, r)
				nz := orPlanes(r)
				for i := range neg {
					neg[i] &= nz
				}
				p.rotlLanes(cat, neg)
				copy(dst, cat[:w])
			}
		case ir.OpUAddO:
			sum := p.t0[:w]
			dst[0] = addPlanes(sum, a, b)
		case ir.OpSAddO:
			sum := p.t0[:w]
			addPlanes(sum, a, b)
			dst[0] = ^(a[w-1] ^ b[w-1]) & (sum[w-1] ^ a[w-1])
		case ir.OpUSubO:
			diff := p.t0[:w]
			dst[0] = subPlanes(diff, a, b)
		case ir.OpSSubO:
			diff := p.t0[:w]
			subPlanes(diff, a, b)
			dst[0] = (a[w-1] ^ b[w-1]) & (diff[w-1] ^ a[w-1])
		case ir.OpUMulO:
			prod := p.t0[:2*w]
			mulPlanes(prod, a, b)
			dst[0] = orPlanes(prod[w:])
		case ir.OpSMulO:
			dst[0] = p.smulOverflow(a, b)
		default:
			panic(fmt.Sprintf("eval: unhandled op %v in sliced mode", n.Op))
		}
	}
	return root, ok
}

// rangeMask reports per lane whether the value satisfies the (possibly
// wrapped) range [lo, hi); lo == hi denotes the full set.
func (p *SlicedProgram) rangeMask(v []uint64, lo, hi apint.Int) uint64 {
	if lo.Eq(hi) {
		return ^uint64(0)
	}
	loP, hiP := p.t0[:len(v)], p.t1[:len(v)]
	constPlanes(loP, lo.Uint64())
	constPlanes(hiP, hi.Uint64())
	uge := ^ultPlanes(v, loP)
	ult := ultPlanes(v, hiP)
	if lo.ULT(hi) {
		return uge & ult
	}
	return uge | ult
}

// constPlanes broadcasts a constant across all lanes.
func constPlanes(dst []uint64, val uint64) {
	for i := range dst {
		if val>>uint(i)&1 == 1 {
			dst[i] = ^uint64(0)
		} else {
			dst[i] = 0
		}
	}
}

// addPlanes computes dst = a + b with a ripple carry, returning the
// carry-out mask. dst may alias a or b.
func addPlanes(dst, a, b []uint64) uint64 {
	var carry uint64
	for i := range a {
		ai, bi := a[i], b[i]
		dst[i] = ai ^ bi ^ carry
		carry = (ai & bi) | (carry & (ai ^ bi))
	}
	return carry
}

// subPlanes computes dst = a - b with a ripple borrow, returning the
// borrow-out mask (a < b unsigned). dst may alias a or b.
func subPlanes(dst, a, b []uint64) uint64 {
	var borrow uint64
	for i := range a {
		ai, bi := a[i], b[i]
		dst[i] = ai ^ bi ^ borrow
		borrow = (^ai & bi) | ((^ai | bi) & borrow)
	}
	return borrow
}

// decPlanes computes dst = a - 1. dst must not alias a.
func decPlanes(dst, a []uint64) {
	borrow := ^uint64(0)
	dst[0] = ^a[0]
	borrow &= ^a[0]
	for i := 1; i < len(a); i++ {
		dst[i] = a[i] ^ borrow
		borrow &= ^a[i]
	}
}

// ultPlanes returns the mask of lanes where a < b unsigned.
func ultPlanes(a, b []uint64) uint64 {
	var borrow uint64
	for i := range a {
		ai, bi := a[i], b[i]
		borrow = (^ai & bi) | ((^ai | bi) & borrow)
	}
	return borrow
}

// sltPlanes returns the mask of lanes where a < b signed: an unsigned
// compare with both sign planes flipped.
func sltPlanes(a, b []uint64) uint64 {
	w := len(a)
	var borrow uint64
	for i := 0; i < w-1; i++ {
		ai, bi := a[i], b[i]
		borrow = (^ai & bi) | ((^ai | bi) & borrow)
	}
	ai, bi := ^a[w-1], ^b[w-1]
	return (^ai & bi) | ((^ai | bi) & borrow)
}

// eqMask returns the mask of lanes where a == b.
func eqMask(a, b []uint64) uint64 {
	var diff uint64
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return ^diff
}

// neqMask returns the mask of lanes where a != b.
func neqMask(a, b []uint64) uint64 {
	var diff uint64
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff
}

// orPlanes ORs all planes: the mask of lanes with any bit set.
func orPlanes(a []uint64) uint64 {
	var or uint64
	for _, p := range a {
		or |= p
	}
	return or
}

// zeroMask returns the mask of lanes whose value is zero.
func zeroMask(a []uint64) uint64 {
	return ^orPlanes(a)
}

// selectPlanes computes dst = m ? a : b per lane. dst may alias a or b.
func selectPlanes(dst []uint64, m uint64, a, b []uint64) {
	for i := range dst {
		dst[i] = (a[i] & m) | (b[i] &^ m)
	}
}

// condNeg computes dst = m ? -a : a per lane (two's complement; MinSigned
// maps to itself, as AbsValue does). dst may alias a.
func condNeg(dst, a []uint64, m uint64) {
	carry := m
	for i := range a {
		t := a[i] ^ m
		dst[i] = t ^ carry
		carry &= t
	}
}

// popCountPlanes computes dst = popcount(a) per lane by rippling an
// increment through dst for every set source plane. dst must not alias a.
func popCountPlanes(dst, a []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, carry := range a {
		for i := 0; carry != 0 && i < len(dst); i++ {
			x := dst[i]
			dst[i] = x ^ carry
			carry &= x
		}
	}
}

// mulPlanes computes the full double-width product dst = a * b by
// conditional shifted addition. dst has 2*len(a) planes and must not
// alias a or b.
func mulPlanes(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	w := len(a)
	for j := 0; j < w; j++ {
		m := b[j]
		if m == 0 {
			continue
		}
		var carry uint64
		for i := 0; i < w; i++ {
			x, y := dst[j+i], a[i]&m
			dst[j+i] = x ^ y ^ carry
			carry = (x & y) | (carry & (x ^ y))
		}
		for p := j + w; carry != 0 && p < len(dst); p++ {
			x := dst[p]
			dst[p] = x ^ carry
			carry &= x
		}
	}
}

// smulOverflow returns the mask of lanes where a*b overflows signed: the
// magnitude product exceeds 2^(w-1)-1, except that exactly 2^(w-1) is
// representable when the result is negative.
func (p *SlicedProgram) smulOverflow(a, b []uint64) uint64 {
	w := uint(len(a))
	sa, sb := a[w-1], b[w-1]
	absA, absB := p.t1[:w], p.t2[:w]
	condNeg(absA, a, sa)
	condNeg(absB, b, sb)
	prod := p.t3[:2*w]
	mulPlanes(prod, absA, absB)
	neg := sa ^ sb
	hi := orPlanes(prod[w:])
	geHalf := hi | prod[w-1]
	exact := prod[w-1] &^ (orPlanes(prod[:w-1]) | hi)
	return geHalf &^ (exact & neg)
}

// udivrem computes quo = a / b and rem = a % b unsigned by lane-parallel
// restoring division. Lanes with b == 0 produce garbage (the caller masks
// them as UB). quo and rem must not alias a, b, or p.t0.
func (p *SlicedProgram) udivrem(quo, rem, a, b []uint64) {
	w := len(a)
	rx := p.t0[:w+1] // running remainder, one guard plane for the shift-in
	for i := range rx {
		rx[i] = 0
	}
	for i := w - 1; i >= 0; i-- {
		// rx = rx<<1 | a[i]
		copy(rx[1:], rx[:w])
		rx[0] = a[i]
		// ge = rx >= b (b zero-extended by one plane)
		var borrow uint64
		for j := 0; j < w; j++ {
			rj, bj := rx[j], b[j]
			borrow = (^rj & bj) | ((^rj | bj) & borrow)
		}
		ge := ^(^rx[w] & borrow)
		// rx -= b where ge
		borrow = 0
		for j := 0; j < w; j++ {
			rj, bj := rx[j], b[j]
			d := rj ^ bj ^ borrow
			borrow = (^rj & bj) | ((^rj | bj) & borrow)
			rx[j] = (d & ge) | (rj &^ ge)
		}
		rx[w] = ((rx[w] ^ borrow) & ge) | (rx[w] &^ ge)
		quo[i] = ge
	}
	copy(rem, rx[:w])
}

// shlLanes shifts each lane of dst left by its amount in amt, in place.
// Amounts >= width leave garbage (the caller marks those lanes UB).
func shlLanes(dst, amt []uint64) {
	w := len(dst)
	for k := 0; 1<<uint(k) < w; k++ {
		m := amt[k]
		if m == 0 {
			continue
		}
		c := 1 << uint(k)
		for i := w - 1; i >= c; i-- {
			dst[i] = (dst[i-c] & m) | (dst[i] &^ m)
		}
		for i := c - 1; i >= 0; i-- {
			dst[i] &^= m
		}
	}
}

// lshrLanes shifts each lane of dst right (logical) by its amount in amt.
func lshrLanes(dst, amt []uint64) {
	w := len(dst)
	for k := 0; 1<<uint(k) < w; k++ {
		m := amt[k]
		if m == 0 {
			continue
		}
		c := 1 << uint(k)
		for i := 0; i < w-c; i++ {
			dst[i] = (dst[i+c] & m) | (dst[i] &^ m)
		}
		for i := w - c; i < w; i++ {
			dst[i] &^= m
		}
	}
}

// ashrLanes shifts each lane of dst right (arithmetic) by its amount.
func ashrLanes(dst, amt []uint64) {
	w := len(dst)
	for k := 0; 1<<uint(k) < w; k++ {
		m := amt[k]
		if m == 0 {
			continue
		}
		c := 1 << uint(k)
		sign := dst[w-1]
		for i := 0; i < w-c; i++ {
			dst[i] = (dst[i+c] & m) | (dst[i] &^ m)
		}
		for i := w - c; i < w; i++ {
			dst[i] = (sign & m) | (dst[i] &^ m)
		}
	}
}

// rotlLanes rotates each lane of dst left by its amount in r, in place.
// Amounts must already be reduced below len(dst) (planes 6+ of r are
// ignored: a reduced amount never reaches them).
func (p *SlicedProgram) rotlLanes(dst, r []uint64) {
	w := len(dst)
	tmp := p.t7[:w]
	for k := 0; 1<<uint(k) < w && k < len(r); k++ {
		m := r[k]
		if m == 0 {
			continue
		}
		c := 1 << uint(k)
		for i := 0; i < w; i++ {
			tmp[i] = dst[(i+w-c)%w]
		}
		for i := 0; i < w; i++ {
			dst[i] = (tmp[i] & m) | (dst[i] &^ m)
		}
	}
}

// modConst computes dst = s mod m per lane (m >= 1), the rotate-amount
// reduction. dst must not alias s.
func (p *SlicedProgram) modConst(dst, s []uint64, m uint) {
	w := len(s)
	if m&(m-1) == 0 {
		// Power of two: keep the low log2(m) planes.
		lg := bits.TrailingZeros(m)
		for i := range dst {
			if i < lg {
				dst[i] = s[i]
			} else {
				dst[i] = 0
			}
		}
		return
	}
	copy(dst, s)
	mc, t := p.t6[:w], p.t7[:w]
	for k := w - bits.Len(m); k >= 0; k-- {
		constPlanes(mc, uint64(m)<<uint(k))
		borrow := subPlanes(t, dst, mc)
		ge := ^borrow
		for i := range dst {
			dst[i] = (t[i] & ge) | (dst[i] &^ ge)
		}
	}
}
