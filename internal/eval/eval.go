// Package eval interprets ir Functions on concrete inputs, tracking
// LLVM-style undefined behaviour. A dataflow fact is quantified over
// well-defined executions only, so the interpreter, the bit-blaster's side
// conditions, and the abstract transfer functions must all agree on exactly
// which inputs those are. This package is the executable definition.
//
// An execution is ill-defined (Eval returns ok=false) when:
//   - any division or remainder has a zero divisor,
//   - sdiv/srem overflows (MinSigned divided by -1),
//   - a shl/lshr/ashr amount is >= the bit width,
//   - an nsw/nuw-flagged add/sub/mul/shl wraps,
//   - an exact-flagged udiv/sdiv has a non-zero remainder, or an exact
//     lshr/ashr shifts out a set bit,
//   - an input lies outside its declared range metadata.
//
// cttz/ctlz of zero are defined (they return the width), and rotate amounts
// wrap, matching Souper.
package eval

import (
	"fmt"
	"math/rand"

	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
)

// Env assigns a concrete value to each input variable.
type Env map[*ir.Inst]apint.Int

// EnvFromNames builds an Env for f from variable names. Missing or
// wrong-width entries are an error.
func EnvFromNames(f *ir.Function, vals map[string]uint64) (Env, error) {
	env := make(Env, len(f.Vars))
	for _, v := range f.Vars {
		val, ok := vals[v.Name]
		if !ok {
			return nil, fmt.Errorf("eval: no value for %%%s", v.Name)
		}
		env[v] = apint.New(v.Width, val)
	}
	return env, nil
}

// InRange reports whether every variable's value satisfies its range
// metadata. The range [lo,hi) may wrap; lo == hi denotes the full set.
func InRange(f *ir.Function, env Env) bool {
	for _, v := range f.Vars {
		if !v.HasRange {
			continue
		}
		if !rangeContains(env[v], v.Lo, v.Hi) {
			return false
		}
	}
	return true
}

func rangeContains(v, lo, hi apint.Int) bool {
	if lo.Eq(hi) {
		return true // full set
	}
	if lo.ULT(hi) {
		return v.UGE(lo) && v.ULT(hi)
	}
	return v.UGE(lo) || v.ULT(hi) // wrapped
}

// Eval runs f on env. ok is false when the execution is ill-defined; the
// returned value is meaningless in that case. Enumeration sweeps use the
// bit-sliced SlicedProgram instead, 64 inputs per call.
func Eval(f *ir.Function, env Env) (result apint.Int, ok bool) {
	if !InRange(f, env) {
		return apint.Int{}, false
	}
	vals := make(map[*ir.Inst]apint.Int)
	for _, n := range f.Insts() {
		v, ok := evalInst(n, env, vals)
		if !ok {
			return apint.Int{}, false
		}
		vals[n] = v
	}
	return vals[f.Root], true
}

func evalInst(n *ir.Inst, env Env, vals map[*ir.Inst]apint.Int) (apint.Int, bool) {
	switch n.Op {
	case ir.OpVar:
		v, ok := env[n]
		if !ok {
			panic(fmt.Sprintf("eval: unbound var %%%s", n.Name))
		}
		if v.Width() != n.Width {
			panic(fmt.Sprintf("eval: %%%s bound at width %d, want %d", n.Name, v.Width(), n.Width))
		}
		return v, true
	case ir.OpConst:
		return n.Val, true
	}
	var a0, a1, a2 apint.Int
	switch len(n.Args) {
	case 3:
		a2 = vals[n.Args[2]]
		fallthrough
	case 2:
		a1 = vals[n.Args[1]]
		fallthrough
	case 1:
		a0 = vals[n.Args[0]]
	}
	return evalOp(n, a0, a1, a2)
}

// evalOp evaluates a non-leaf instruction on already-computed operand
// values (unused trailing operands are ignored).
func evalOp(n *ir.Inst, a0, a1, a2 apint.Int) (apint.Int, bool) {
	arg := func(i int) apint.Int {
		switch i {
		case 0:
			return a0
		case 1:
			return a1
		default:
			return a2
		}
	}
	switch n.Op {
	case ir.OpAdd:
		a, b := arg(0), arg(1)
		if n.Flags&ir.FlagNSW != 0 && a.SAddOverflow(b) {
			return apint.Int{}, false
		}
		if n.Flags&ir.FlagNUW != 0 && a.UAddOverflow(b) {
			return apint.Int{}, false
		}
		return a.Add(b), true
	case ir.OpSub:
		a, b := arg(0), arg(1)
		if n.Flags&ir.FlagNSW != 0 && a.SSubOverflow(b) {
			return apint.Int{}, false
		}
		if n.Flags&ir.FlagNUW != 0 && a.USubOverflow(b) {
			return apint.Int{}, false
		}
		return a.Sub(b), true
	case ir.OpMul:
		a, b := arg(0), arg(1)
		if n.Flags&ir.FlagNSW != 0 && a.SMulOverflow(b) {
			return apint.Int{}, false
		}
		if n.Flags&ir.FlagNUW != 0 && a.UMulOverflow(b) {
			return apint.Int{}, false
		}
		return a.Mul(b), true

	case ir.OpUDiv:
		a, b := arg(0), arg(1)
		if b.IsZero() {
			return apint.Int{}, false
		}
		q := a.UDiv(b)
		if n.Flags&ir.FlagExact != 0 && !a.URem(b).IsZero() {
			return apint.Int{}, false
		}
		return q, true
	case ir.OpSDiv:
		a, b := arg(0), arg(1)
		if b.IsZero() || (a.IsMinSigned() && b.IsAllOnes()) {
			return apint.Int{}, false
		}
		if n.Flags&ir.FlagExact != 0 && !a.SRem(b).IsZero() {
			return apint.Int{}, false
		}
		return a.SDiv(b), true
	case ir.OpURem:
		a, b := arg(0), arg(1)
		if b.IsZero() {
			return apint.Int{}, false
		}
		return a.URem(b), true
	case ir.OpSRem:
		a, b := arg(0), arg(1)
		if b.IsZero() || (a.IsMinSigned() && b.IsAllOnes()) {
			return apint.Int{}, false
		}
		return a.SRem(b), true

	case ir.OpAnd:
		return arg(0).And(arg(1)), true
	case ir.OpOr:
		return arg(0).Or(arg(1)), true
	case ir.OpXor:
		return arg(0).Xor(arg(1)), true

	case ir.OpShl:
		a, s := arg(0), arg(1)
		if s.Uint64() >= uint64(n.Width) {
			return apint.Int{}, false
		}
		sh := uint(s.Uint64())
		if n.Flags&ir.FlagNSW != 0 && a.SShlOverflow(sh) {
			return apint.Int{}, false
		}
		if n.Flags&ir.FlagNUW != 0 && a.UShlOverflow(sh) {
			return apint.Int{}, false
		}
		return a.Shl(sh), true
	case ir.OpLShr:
		a, s := arg(0), arg(1)
		if s.Uint64() >= uint64(n.Width) {
			return apint.Int{}, false
		}
		sh := uint(s.Uint64())
		if n.Flags&ir.FlagExact != 0 && a.LShr(sh).Shl(sh).Ne(a) {
			return apint.Int{}, false
		}
		return a.LShr(sh), true
	case ir.OpAShr:
		a, s := arg(0), arg(1)
		if s.Uint64() >= uint64(n.Width) {
			return apint.Int{}, false
		}
		sh := uint(s.Uint64())
		if n.Flags&ir.FlagExact != 0 && a.AShr(sh).Shl(sh).Ne(a) {
			return apint.Int{}, false
		}
		return a.AShr(sh), true

	case ir.OpEq:
		return boolToInt(arg(0).Eq(arg(1))), true
	case ir.OpNe:
		return boolToInt(arg(0).Ne(arg(1))), true
	case ir.OpULT:
		return boolToInt(arg(0).ULT(arg(1))), true
	case ir.OpULE:
		return boolToInt(arg(0).ULE(arg(1))), true
	case ir.OpSLT:
		return boolToInt(arg(0).SLT(arg(1))), true
	case ir.OpSLE:
		return boolToInt(arg(0).SLE(arg(1))), true

	case ir.OpSelect:
		if arg(0).IsOne() {
			return arg(1), true
		}
		return arg(2), true

	case ir.OpZExt:
		return arg(0).ZExt(n.Width), true
	case ir.OpSExt:
		return arg(0).SExt(n.Width), true
	case ir.OpTrunc:
		return arg(0).Trunc(n.Width), true

	case ir.OpCtPop:
		return apint.New(n.Width, uint64(arg(0).PopCount())), true
	case ir.OpBSwap:
		return arg(0).ByteSwap(), true
	case ir.OpBitReverse:
		return arg(0).ReverseBits(), true
	case ir.OpCttz:
		return apint.New(n.Width, uint64(arg(0).CountTrailingZeros())), true
	case ir.OpCtlz:
		return apint.New(n.Width, uint64(arg(0).CountLeadingZeros())), true

	case ir.OpRotL:
		return arg(0).RotL(uint(arg(1).Uint64() % uint64(n.Width))), true
	case ir.OpRotR:
		return arg(0).RotR(uint(arg(1).Uint64() % uint64(n.Width))), true

	case ir.OpUMin:
		return arg(0).UMin(arg(1)), true
	case ir.OpUMax:
		return arg(0).UMax(arg(1)), true
	case ir.OpSMin:
		return arg(0).SMin(arg(1)), true
	case ir.OpSMax:
		return arg(0).SMax(arg(1)), true
	case ir.OpAbs:
		return arg(0).AbsValue(), true

	case ir.OpFshl, ir.OpFshr:
		a, bv, s := arg(0), arg(1), uint(arg(2).Uint64()%uint64(n.Width))
		if n.Op == ir.OpFshl {
			if s == 0 {
				return a, true
			}
			return a.Shl(s).Or(bv.LShr(n.Width - s)), true
		}
		if s == 0 {
			return bv, true
		}
		return a.Shl(n.Width - s).Or(bv.LShr(s)), true

	case ir.OpUAddO:
		return boolToInt(arg(0).UAddOverflow(arg(1))), true
	case ir.OpSAddO:
		return boolToInt(arg(0).SAddOverflow(arg(1))), true
	case ir.OpUSubO:
		return boolToInt(arg(0).USubOverflow(arg(1))), true
	case ir.OpSSubO:
		return boolToInt(arg(0).SSubOverflow(arg(1))), true
	case ir.OpUMulO:
		return boolToInt(arg(0).UMulOverflow(arg(1))), true
	case ir.OpSMulO:
		return boolToInt(arg(0).SMulOverflow(arg(1))), true
	}
	panic(fmt.Sprintf("eval: unhandled op %v", n.Op))
}

func boolToInt(b bool) apint.Int {
	if b {
		return apint.One(1)
	}
	return apint.Zero(1)
}

// TotalInputBits returns the summed width of all input variables; exhaustive
// enumeration is feasible when this is small.
func TotalInputBits(f *ir.Function) uint {
	var total uint
	for _, v := range f.Vars {
		total += v.Width
	}
	return total
}

// MaxEnumBits is the largest total input width ForEachInput will enumerate.
const MaxEnumBits = 24

// ForEachInput enumerates every input assignment (including ill-defined
// ones; callers see ok=false from Eval for those) and calls fn. Enumeration
// stops early if fn returns false. It panics when the input space exceeds
// 2^MaxEnumBits assignments.
func ForEachInput(f *ir.Function, fn func(env Env) bool) {
	total := TotalInputBits(f)
	if total > MaxEnumBits {
		panic(fmt.Sprintf("eval: input space of %d bits too large to enumerate", total))
	}
	env := make(Env, len(f.Vars))
	var count uint64 = 1 << total
	for x := uint64(0); x < count; x++ {
		bits := x
		for _, v := range f.Vars {
			env[v] = apint.New(v.Width, bits)
			bits >>= v.Width
		}
		if !fn(env) {
			return
		}
	}
}

// RandomEnv draws a uniformly random input assignment.
func RandomEnv(f *ir.Function, rng *rand.Rand) Env {
	env := make(Env, len(f.Vars))
	for _, v := range f.Vars {
		env[v] = apint.New(v.Width, rng.Uint64())
	}
	return env
}

// RandomWellDefinedEnv draws random assignments until one yields a
// well-defined execution, up to tries attempts.
func RandomWellDefinedEnv(f *ir.Function, rng *rand.Rand, tries int) (Env, bool) {
	for i := 0; i < tries; i++ {
		env := RandomEnv(f, rng)
		if _, ok := Eval(f, env); ok {
			return env, true
		}
	}
	return nil, false
}
