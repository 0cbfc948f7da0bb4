package bitblast

import (
	"fmt"

	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
)

// Blasted is a compiled function: one word per instruction, plus the
// WellDefined literal that is true exactly when the execution is
// well-defined for the chosen inputs (no UB per eval's rules) and every
// input satisfies its range metadata. Dataflow queries always conjoin
// WellDefined, mirroring Souper's UB-aware quantification.
type Blasted struct {
	C           *Circuit
	F           *ir.Function
	Inputs      map[*ir.Inst]Word
	Values      map[*ir.Inst]Word
	Output      Word
	WellDefined sat.Lit
}

// Blast compiles f onto a fresh circuit over s, allocating free input
// words for every variable.
func Blast(s *sat.Solver, f *ir.Function) *Blasted {
	return BlastCircuit(NewCircuit(s), f)
}

// BlastCircuit compiles f onto an existing circuit, allocating free input
// words for every variable — the hook engines use to configure the
// circuit (e.g. DisableStrash) before blasting, or to blast several
// functions onto one shared structural hash.
func BlastCircuit(c *Circuit, f *ir.Function) *Blasted {
	inputs := make(map[*ir.Inst]Word, len(f.Vars))
	for _, v := range f.Vars {
		inputs[v] = c.FreshWord(v.Width)
	}
	return BlastWith(c, f, inputs)
}

// BlastWith compiles f reusing the given circuit and input words — the
// mechanism behind the demanded-bits oracle, which blasts the same
// function twice sharing all inputs except one flipped bit.
func BlastWith(c *Circuit, f *ir.Function, inputs map[*ir.Inst]Word) *Blasted {
	b := &Blasted{
		C:           c,
		F:           f,
		Inputs:      inputs,
		Values:      make(map[*ir.Inst]Word),
		WellDefined: c.True(),
	}
	for _, n := range f.Insts() {
		b.Values[n] = b.blastInst(n)
	}
	b.Output = b.Values[f.Root]
	return b
}

func (b *Blasted) requireDefined(cond sat.Lit) {
	b.WellDefined = b.C.And(b.WellDefined, cond)
}

func (b *Blasted) blastInst(n *ir.Inst) Word {
	c := b.C
	arg := func(i int) Word { return b.Values[n.Args[i]] }

	switch n.Op {
	case ir.OpConst:
		return c.ConstWord(n.Val)

	case ir.OpVar:
		w, ok := b.Inputs[n]
		if !ok {
			panic(fmt.Sprintf("bitblast: no input word for %%%s", n.Name))
		}
		if n.HasRange {
			b.requireDefined(b.inRange(w, n.Lo, n.Hi))
		}
		return w

	case ir.OpAdd:
		out, carry := c.AddCarry(arg(0), arg(1), c.False())
		if n.Flags&ir.FlagNUW != 0 {
			b.requireDefined(carry.Not())
		}
		if n.Flags&ir.FlagNSW != 0 {
			b.requireDefined(addSignedOverflow(c, arg(0), arg(1), out).Not())
		}
		return out

	case ir.OpSub:
		out, carry := c.Sub(arg(0), arg(1))
		if n.Flags&ir.FlagNUW != 0 {
			b.requireDefined(carry) // carry=1 means no borrow
		}
		if n.Flags&ir.FlagNSW != 0 {
			b.requireDefined(subSignedOverflow(c, arg(0), arg(1), out).Not())
		}
		return out

	case ir.OpMul:
		out, uov, sov := c.Mul(arg(0), arg(1))
		if n.Flags&ir.FlagNUW != 0 {
			b.requireDefined(uov.Not())
		}
		if n.Flags&ir.FlagNSW != 0 {
			b.requireDefined(sov.Not())
		}
		return out

	case ir.OpUDiv:
		quot, rem := c.UDivURem(arg(0), arg(1))
		b.requireDefined(b.nonZeroWord(arg(1)))
		if n.Flags&ir.FlagExact != 0 {
			b.requireDefined(b.zeroWord(rem))
		}
		return quot
	case ir.OpURem:
		_, rem := c.UDivURem(arg(0), arg(1))
		b.requireDefined(b.nonZeroWord(arg(1)))
		return rem
	case ir.OpSDiv:
		quot, rem := c.SDivSRem(arg(0), arg(1))
		b.requireSDivDefined(n, arg(0), arg(1))
		if n.Flags&ir.FlagExact != 0 {
			b.requireDefined(b.zeroWord(rem))
		}
		return quot
	case ir.OpSRem:
		_, rem := c.SDivSRem(arg(0), arg(1))
		b.requireSDivDefined(n, arg(0), arg(1))
		return rem

	case ir.OpAnd:
		return c.AndWord(arg(0), arg(1))
	case ir.OpOr:
		return c.OrWord(arg(0), arg(1))
	case ir.OpXor:
		return c.XorWord(arg(0), arg(1))

	case ir.OpShl:
		out, over := c.BarrelShift(arg(0), arg(1), shiftLeft)
		b.requireDefined(over.Not())
		if n.Flags&ir.FlagNUW != 0 {
			// No set bit may be shifted out: shifting back recovers a.
			back, _ := c.BarrelShift(out, arg(1), shiftRightLogical)
			b.requireDefined(c.Eq(back, arg(0)))
		}
		if n.Flags&ir.FlagNSW != 0 {
			back, _ := c.BarrelShift(out, arg(1), shiftRightArith)
			b.requireDefined(c.Eq(back, arg(0)))
		}
		return out
	case ir.OpLShr:
		out, over := c.BarrelShift(arg(0), arg(1), shiftRightLogical)
		b.requireDefined(over.Not())
		if n.Flags&ir.FlagExact != 0 {
			back, _ := c.BarrelShift(out, arg(1), shiftLeft)
			b.requireDefined(c.Eq(back, arg(0)))
		}
		return out
	case ir.OpAShr:
		out, over := c.BarrelShift(arg(0), arg(1), shiftRightArith)
		b.requireDefined(over.Not())
		if n.Flags&ir.FlagExact != 0 {
			back, _ := c.BarrelShift(out, arg(1), shiftLeft)
			b.requireDefined(c.Eq(back, arg(0)))
		}
		return out

	case ir.OpEq:
		return Word{c.Eq(arg(0), arg(1))}
	case ir.OpNe:
		return Word{c.Eq(arg(0), arg(1)).Not()}
	case ir.OpULT:
		return Word{c.ULT(arg(0), arg(1))}
	case ir.OpULE:
		return Word{c.ULE(arg(0), arg(1))}
	case ir.OpSLT:
		return Word{c.SLT(arg(0), arg(1))}
	case ir.OpSLE:
		return Word{c.SLE(arg(0), arg(1))}

	case ir.OpSelect:
		return c.MuxWord(arg(0)[0], arg(1), arg(2))

	case ir.OpZExt:
		return c.ZExt(arg(0), n.Width)
	case ir.OpSExt:
		return c.SExt(arg(0), n.Width)
	case ir.OpTrunc:
		return c.Trunc(arg(0), n.Width)

	case ir.OpCtPop:
		return c.PopCount(arg(0))
	case ir.OpBSwap:
		return c.BSwap(arg(0))
	case ir.OpBitReverse:
		return c.BitReverse(arg(0))
	case ir.OpCttz:
		return c.Cttz(arg(0))
	case ir.OpCtlz:
		return c.Ctlz(arg(0))

	case ir.OpRotL:
		return c.Rotate(arg(0), arg(1), true)
	case ir.OpRotR:
		return c.Rotate(arg(0), arg(1), false)

	case ir.OpUMin:
		return c.UMin(arg(0), arg(1))
	case ir.OpUMax:
		return c.UMax(arg(0), arg(1))
	case ir.OpSMin:
		return c.SMin(arg(0), arg(1))
	case ir.OpSMax:
		return c.SMax(arg(0), arg(1))
	case ir.OpAbs:
		return c.Abs(arg(0))

	case ir.OpFshl:
		return c.FunnelShift(arg(0), arg(1), arg(2), true)
	case ir.OpFshr:
		return c.FunnelShift(arg(0), arg(1), arg(2), false)

	case ir.OpUAddO:
		_, carry := c.AddCarry(arg(0), arg(1), c.False())
		return Word{carry}
	case ir.OpSAddO:
		sum := c.Add(arg(0), arg(1))
		return Word{addSignedOverflow(c, arg(0), arg(1), sum)}
	case ir.OpUSubO:
		_, carry := c.Sub(arg(0), arg(1))
		return Word{carry.Not()} // borrow
	case ir.OpSSubO:
		diff, _ := c.Sub(arg(0), arg(1))
		return Word{subSignedOverflow(c, arg(0), arg(1), diff)}
	case ir.OpUMulO:
		_, uov, _ := c.Mul(arg(0), arg(1))
		return Word{uov}
	case ir.OpSMulO:
		_, _, sov := c.Mul(arg(0), arg(1))
		return Word{sov}
	}
	panic(fmt.Sprintf("bitblast: unhandled op %v", n.Op))
}

// requireSDivDefined excludes zero divisors and the MinSigned/-1 overflow.
func (b *Blasted) requireSDivDefined(n *ir.Inst, a, d Word) {
	c := b.C
	b.requireDefined(b.nonZeroWord(d))
	minS := c.Eq(a, c.ConstWord(apint.MinSigned(n.Width)))
	negOne := c.Eq(d, c.ConstWord(apint.AllOnes(n.Width)))
	b.requireDefined(c.And(minS, negOne).Not())
}

func (b *Blasted) nonZeroWord(w Word) sat.Lit { return b.C.OrN(w...) }
func (b *Blasted) zeroWord(w Word) sat.Lit    { return b.C.OrN(w...).Not() }

// inRange encodes membership in the possibly-wrapping [lo, hi) interval
// (lo == hi denotes the full set).
func (b *Blasted) inRange(w Word, lo, hi apint.Int) sat.Lit {
	c := b.C
	if lo.Eq(hi) {
		return c.True()
	}
	geLo := c.ULT(w, c.ConstWord(lo)).Not()
	ltHi := c.ULT(w, c.ConstWord(hi))
	if lo.ULT(hi) {
		return c.And(geLo, ltHi)
	}
	return c.Or(geLo, ltHi)
}

func addSignedOverflow(c *Circuit, a, b, sum Word) sat.Lit {
	w := len(a)
	sameSign := c.Xnor(a[w-1], b[w-1])
	flipped := c.Xor(sum[w-1], a[w-1])
	return c.And(sameSign, flipped)
}

func subSignedOverflow(c *Circuit, a, b, diff Word) sat.Lit {
	w := len(a)
	diffSign := c.Xor(a[w-1], b[w-1])
	flipped := c.Xor(diff[w-1], a[w-1])
	return c.And(diffSign, flipped)
}

// Model extracts the input assignment from a satisfying model.
func (b *Blasted) Model() map[*ir.Inst]apint.Int {
	env := make(map[*ir.Inst]apint.Int, len(b.Inputs))
	for v, w := range b.Inputs {
		env[v] = b.C.Value(w)
	}
	return env
}
