package eval

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
)

// ConstFold evaluates one non-leaf operation on concrete operand values
// under the same UB/poison semantics as Eval: ok is false when the
// execution is ill-defined (division by zero, poison-flag violation,
// oversized shift amount). Abstract interpreters use it to fold
// all-singleton operand tuples exactly, and the optimizer to fold
// all-literal instructions, instead of duplicating the concrete
// semantics.
func ConstFold(op ir.Op, flags ir.Flags, dstW uint, args []apint.Int) (apint.Int, bool) {
	n := &ir.Inst{Op: op, Flags: flags, Width: dstW}
	var a0, a1, a2 apint.Int
	switch len(args) {
	case 3:
		a2 = args[2]
		fallthrough
	case 2:
		a1 = args[1]
		fallthrough
	case 1:
		a0 = args[0]
	}
	return evalOp(n, a0, a1, a2)
}
