package opt

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

// Optimize rewrites f using facts from src: instructions whose fact pins
// them to a single value fold to constants, comparisons decided by ranges
// fold, algebraic identities simplify, and everything unreachable from the
// new root disappears. The rewrite refines the program: on every input
// where f executes without UB, the result is unchanged (it may define
// previously-UB inputs, which is the allowed direction).
func Optimize(f *ir.Function, src FactSource) *ir.Function {
	b := ir.NewBuilder()
	rewritten := make(map[*ir.Inst]*ir.Inst)
	for _, n := range f.Insts() {
		rewritten[n] = rewrite(b, n, rewritten, src)
	}
	return b.Function(rewritten[f.Root])
}

func rewrite(b *ir.Builder, n *ir.Inst, done map[*ir.Inst]*ir.Inst, src FactSource) *ir.Inst {
	switch n.Op {
	case ir.OpConst:
		return b.Const(n.Val)
	case ir.OpVar:
		if n.HasRange {
			return b.VarRange(n.Name, n.Width, n.Lo, n.Hi)
		}
		return b.Var(n.Name, n.Width)
	}

	args := make([]*ir.Inst, len(n.Args))
	for i, a := range n.Args {
		args[i] = done[a]
	}

	// Facts about the original instruction pin the rewritten one: the
	// rewrite so far is value-preserving on well-defined inputs.
	if kb := src.KnownBits(n); kb.IsConstant() {
		return b.Const(kb.Constant())
	}
	if rg := src.Range(n); rg.IsSingle() {
		return b.Const(rg.SingleValue())
	}

	// Comparison decided by operand ranges.
	if n.Op.IsCmp() {
		if res, known := constrange.ICmpDecide(predOf(n.Op), src.Range(n.Args[0]), src.Range(n.Args[1])); known {
			return b.Const(boolConst(res))
		}
	}

	// All-constant operands: fold through the interpreter when defined.
	if folded, ok := foldConstants(n, args); ok {
		return b.Const(folded)
	}

	// Algebraic identities (checked on the rewritten operands).
	if simplified := simplify(b, n, args, src); simplified != nil {
		return simplified
	}

	if n.Op.IsCast() {
		return b.BuildCast(n.Op, n.Width, args[0])
	}
	return b.Build(n.Op, n.Flags, args...)
}

func predOf(op ir.Op) constrange.Pred {
	switch op {
	case ir.OpEq:
		return constrange.EQ
	case ir.OpNe:
		return constrange.NE
	case ir.OpULT:
		return constrange.ULT
	case ir.OpULE:
		return constrange.ULE
	case ir.OpSLT:
		return constrange.SLT
	case ir.OpSLE:
		return constrange.SLE
	}
	panic("opt: not a comparison")
}

func boolConst(v bool) apint.Int {
	if v {
		return apint.One(1)
	}
	return apint.Zero(1)
}

// foldConstants evaluates an instruction whose rewritten operands are all
// literals through the interpreter, when the evaluation is well-defined.
func foldConstants(n *ir.Inst, args []*ir.Inst) (apint.Int, bool) {
	vals := make([]apint.Int, len(args))
	for i, a := range args {
		if !a.IsConst() {
			return apint.Int{}, false
		}
		vals[i] = a.ConstValue()
	}
	return eval.ConstFold(n.Op, n.Flags, n.Width, vals)
}

// simplify applies algebraic identities; nil means no rule fired.
func simplify(b *ir.Builder, n *ir.Inst, args []*ir.Inst, src FactSource) *ir.Inst {
	isZero := func(a *ir.Inst) bool { return a.IsConst() && a.ConstValue().IsZero() }
	isOne := func(a *ir.Inst) bool { return a.IsConst() && a.ConstValue().IsOne() }
	isAllOnes := func(a *ir.Inst) bool { return a.IsConst() && a.ConstValue().IsAllOnes() }

	if folded := simplifyDemanded(n, args, src); folded != nil {
		return folded
	}
	if folded := reassociateConst(b, n, args); folded != nil {
		return folded
	}
	if folded := shiftMaskPair(b, n, args); folded != nil {
		return folded
	}
	if folded := castPair(b, n, args); folded != nil {
		return folded
	}

	switch n.Op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if isZero(args[0]) {
			return args[1]
		}
		if isZero(args[1]) {
			return args[0]
		}
		if n.Op == ir.OpXor && args[0] == args[1] {
			return b.Const(apint.Zero(n.Width))
		}
		if n.Op == ir.OpOr {
			if isAllOnes(args[0]) || isAllOnes(args[1]) {
				return b.Const(apint.AllOnes(n.Width))
			}
			// x | c == x when every set bit of c is already known set.
			for i, a := range args {
				if a.IsConst() {
					other := n.Args[1-i]
					if a.ConstValue().And(src.KnownBits(other).One.Not()).IsZero() {
						return args[1-i]
					}
				}
			}
		}
	case ir.OpSub:
		if isZero(args[1]) {
			return args[0]
		}
		if args[0] == args[1] {
			return b.Const(apint.Zero(n.Width))
		}
	case ir.OpMul:
		if isZero(args[0]) || isZero(args[1]) {
			return b.Const(apint.Zero(n.Width))
		}
		if isOne(args[0]) {
			return args[1]
		}
		if isOne(args[1]) {
			return args[0]
		}
	case ir.OpAnd:
		if isZero(args[0]) || isZero(args[1]) {
			return b.Const(apint.Zero(n.Width))
		}
		if isAllOnes(args[0]) {
			return args[1]
		}
		if isAllOnes(args[1]) {
			return args[0]
		}
		if args[0] == args[1] {
			return args[0]
		}
		// x & c == x when every bit cleared by c is already known zero.
		for i, a := range args {
			if a.IsConst() {
				other := n.Args[1-i]
				if a.ConstValue().Not().And(src.KnownBits(other).Zero.Not()).IsZero() {
					return args[1-i]
				}
			}
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if isZero(args[1]) {
			return args[0]
		}
		if isZero(args[0]) {
			return b.Const(apint.Zero(n.Width))
		}
	case ir.OpUDiv, ir.OpSDiv:
		if isOne(args[1]) {
			return args[0]
		}
	case ir.OpURem:
		if isOne(args[1]) {
			return b.Const(apint.Zero(n.Width))
		}
	case ir.OpSelect:
		if args[0].IsConst() {
			if args[0].ConstValue().IsOne() {
				return args[1]
			}
			return args[2]
		}
		if args[1] == args[2] {
			return args[1]
		}
	}
	return nil
}

// simplifyDemanded is a SimplifyDemandedBits-lite: when one operand of an
// instruction cannot influence any bit the function's result observes
// (per the backward demanded-bits masks), the instruction collapses to
// its other operand. The replacement may change the instruction's
// non-demanded bits, which by construction no user observes.
func simplifyDemanded(n *ir.Inst, args []*ir.Inst, src FactSource) *ir.Inst {
	if n.Flags != 0 {
		return nil // flags make overflow on dead bits observable as poison
	}
	demanded := src.Demanded(n)
	if demanded.IsAllOnes() {
		return nil // the common case: everything observed
	}
	switch n.Op {
	case ir.OpOr, ir.OpXor:
		// An operand whose settable bits miss the demanded mask is inert.
		for i := 0; i < 2; i++ {
			other := src.KnownBits(n.Args[1-i])
			if demanded.And(other.UMax()).IsZero() {
				return args[i]
			}
		}
	case ir.OpAnd:
		// An operand that is known one on every demanded bit passes the
		// other operand through.
		for i := 0; i < 2; i++ {
			other := src.KnownBits(n.Args[1-i])
			if demanded.And(other.One).Eq(demanded) {
				return args[i]
			}
		}
	case ir.OpAdd:
		// Carries travel upward only: an operand whose lowest possible
		// set bit lies above every demanded bit cannot affect them.
		high := demanded.Width() - demanded.CountLeadingZeros() // highest demanded bit + 1
		for i := 0; i < 2; i++ {
			other := src.KnownBits(n.Args[1-i])
			if other.CountMinTrailingZeros() >= high {
				return args[i]
			}
		}
	}
	return nil
}

// reassociateConst folds (x op c1) op c2 into x op (c1 op c2) for the
// associative-commutative ops, dropping poison flags (which only widens
// the set of defined inputs — the allowed refinement direction).
func reassociateConst(b *ir.Builder, n *ir.Inst, args []*ir.Inst) *ir.Inst {
	switch n.Op {
	case ir.OpAdd, ir.OpAnd, ir.OpOr, ir.OpXor:
	default:
		return nil
	}
	if n.Flags != 0 {
		return nil
	}
	for i := 0; i < 2; i++ {
		outer, inner := args[i], args[1-i]
		if !outer.IsConst() || inner.Op != n.Op || inner.Flags != 0 {
			continue
		}
		for j := 0; j < 2; j++ {
			if !inner.Args[j].IsConst() {
				continue
			}
			c1 := inner.Args[j].ConstValue()
			c2 := outer.ConstValue()
			x := inner.Args[1-j]
			var combined apint.Int
			switch n.Op {
			case ir.OpAdd:
				combined = c1.Add(c2)
			case ir.OpAnd:
				combined = c1.And(c2)
			case ir.OpOr:
				combined = c1.Or(c2)
			case ir.OpXor:
				combined = c1.Xor(c2)
			}
			// Apply the identity the combined constant may expose.
			switch {
			case combined.IsZero() && n.Op != ir.OpAnd:
				return x
			case combined.IsZero() && n.Op == ir.OpAnd:
				return b.Const(combined)
			case combined.IsAllOnes() && n.Op == ir.OpAnd:
				return x
			case combined.IsAllOnes() && n.Op == ir.OpOr:
				return b.Const(combined)
			}
			return b.Build(n.Op, 0, x, b.Const(combined))
		}
	}
	return nil
}

// shiftMaskPair rewrites (x << c) >> c and (x >> c) << c into single AND
// masks (always valid for logical shifts at matching constant amounts).
func shiftMaskPair(b *ir.Builder, n *ir.Inst, args []*ir.Inst) *ir.Inst {
	w := n.Width
	if n.Flags != 0 {
		return nil
	}
	constAmount := func(m *ir.Inst) (uint, bool) {
		if m.Args[1].IsConst() {
			c := m.Args[1].ConstValue().Uint64()
			if c < uint64(w) {
				return uint(c), true
			}
		}
		return 0, false
	}
	switch n.Op {
	case ir.OpLShr:
		inner := args[0]
		if inner.Op == ir.OpShl && inner.Flags == 0 {
			cOut, ok1 := constAmount(n)
			cIn, ok2 := constAmount(inner)
			if ok1 && ok2 && cOut == cIn {
				mask := apint.AllOnes(w).LShr(cOut)
				return b.And(inner.Args[0], b.Const(mask))
			}
		}
	case ir.OpShl:
		inner := args[0]
		if inner.Op == ir.OpLShr && inner.Flags == 0 {
			cOut, ok1 := constAmount(n)
			cIn, ok2 := constAmount(inner)
			if ok1 && ok2 && cOut == cIn {
				mask := apint.AllOnes(w).Shl(cOut)
				return b.And(inner.Args[0], b.Const(mask))
			}
		}
	}
	return nil
}

// castPair collapses chained width casts: trunc(zext/sext x) back to (or
// below) the source width, and nested exts/truncs of the same kind.
func castPair(b *ir.Builder, n *ir.Inst, args []*ir.Inst) *ir.Inst {
	if !n.Op.IsCast() {
		return nil
	}
	inner := args[0]
	switch n.Op {
	case ir.OpTrunc:
		switch inner.Op {
		case ir.OpZExt, ir.OpSExt:
			src := inner.Args[0]
			switch {
			case n.Width == src.Width:
				return src
			case n.Width < src.Width:
				return b.Trunc(src, n.Width)
			}
			// Truncating an extension to an intermediate width keeps
			// the same extension kind from the source.
			if inner.Op == ir.OpZExt {
				return b.ZExt(src, n.Width)
			}
			return b.SExt(src, n.Width)
		case ir.OpTrunc:
			return b.Trunc(inner.Args[0], n.Width)
		}
	case ir.OpZExt:
		if inner.Op == ir.OpZExt {
			return b.ZExt(inner.Args[0], n.Width)
		}
	case ir.OpSExt:
		if inner.Op == ir.OpSExt {
			return b.SExt(inner.Args[0], n.Width)
		}
		if inner.Op == ir.OpZExt {
			// zext already pinned the top bit to zero: sign extension
			// of it is zero extension from the original source.
			return b.ZExt(inner.Args[0], n.Width)
		}
	}
	return nil
}
