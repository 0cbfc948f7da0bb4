package ir

import (
	"fmt"
	"slices"

	"dfcheck/internal/apint"
)

// Inst is one SSA instruction in an expression DAG. Instructions are
// immutable once built; sharing is by pointer, so structurally equal
// sub-expressions built through a Builder are physically shared.
type Inst struct {
	Op    Op
	Width uint
	Flags Flags
	Args  []*Inst

	// Name is the variable name for OpVar (without the leading '%').
	Name string

	// Val is the literal for OpConst.
	Val apint.Int

	// Range metadata for OpVar, mirroring Souper's (range=[lo,hi))
	// attribute and LLVM's !range metadata: the variable's value is
	// constrained to the half-open, possibly wrapping interval [Lo, Hi).
	HasRange bool
	Lo, Hi   apint.Int

	// id is a stable ordering key assigned by the Builder.
	id int
}

// IsConst reports whether the instruction is a literal.
func (n *Inst) IsConst() bool { return n.Op == OpConst }

// IsVar reports whether the instruction is an input variable.
func (n *Inst) IsVar() bool { return n.Op == OpVar }

// ConstValue returns the literal value; panics on non-constants.
func (n *Inst) ConstValue() apint.Int {
	if n.Op != OpConst {
		panic("ir: ConstValue on non-constant")
	}
	return n.Val
}

// Function is an expression DAG with a single root (Souper's "infer"
// instruction). Vars lists the input variables in first-use order.
type Function struct {
	Root *Inst
	Vars []*Inst

	// order is what Insts returns, recorded once by Builder.Function (a
	// function is shared across goroutines, so it is never filled in
	// lazily); nil for functions written as struct literals.
	order []*Inst
}

// Width returns the bit width of the root value.
func (f *Function) Width() uint { return f.Root.Width }

// Insts returns every instruction reachable from the root in topological
// order (operands before users). The slice is shared: callers only read
// it.
func (f *Function) Insts() []*Inst {
	if f.order != nil {
		return f.order
	}
	return topoOrder(f.Root)
}

// topoOrder lists the instructions reachable from root, operands before
// users, in depth-first post-order.
func topoOrder(root *Inst) []*Inst {
	var order []*Inst
	seen := make(map[*Inst]bool)
	var visit func(n *Inst)
	visit = func(n *Inst) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, a := range n.Args {
			visit(a)
		}
		order = append(order, n)
	}
	visit(root)
	return slices.Clip(order)
}

// NumInsts returns the number of distinct instructions in the DAG,
// excluding variables and constants (matching how the paper counts Souper
// instructions per expression).
func (f *Function) NumInsts() int {
	n := 0
	for _, in := range f.Insts() {
		if !in.IsVar() && !in.IsConst() {
			n++
		}
	}
	return n
}

// Builder constructs hash-consed instruction DAGs: structurally identical
// instructions are returned as the same pointer, so DAG size reflects the
// number of distinct computations.
type Builder struct {
	consts map[constKey]*Inst
	exprs  map[exprKey]*Inst
	vars   map[string]*Inst
	varSeq []*Inst
	nextID int
}

type constKey struct {
	w uint
	v uint64
}

type exprKey struct {
	op    Op
	width uint
	flags Flags
	a0    *Inst
	a1    *Inst
	a2    *Inst
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		consts: make(map[constKey]*Inst),
		exprs:  make(map[exprKey]*Inst),
		vars:   make(map[string]*Inst),
	}
}

func (b *Builder) assignID(n *Inst) *Inst {
	n.id = b.nextID
	b.nextID++
	return n
}

// Var returns the variable with the given name and width, creating it on
// first use. Asking for an existing name with a different width panics.
func (b *Builder) Var(name string, w uint) *Inst {
	if v, ok := b.vars[name]; ok {
		if v.Width != w {
			panic(fmt.Sprintf("ir: var %%%s redeclared with width %d (was %d)", name, w, v.Width))
		}
		return v
	}
	v := b.assignID(&Inst{Op: OpVar, Width: w, Name: name})
	b.vars[name] = v
	b.varSeq = append(b.varSeq, v)
	return v
}

// VarRange returns a fresh range-constrained variable. The range attaches at
// creation; re-requesting the name returns the same instruction.
func (b *Builder) VarRange(name string, w uint, lo, hi apint.Int) *Inst {
	if _, ok := b.vars[name]; ok {
		panic(fmt.Sprintf("ir: range metadata on already-created var %%%s", name))
	}
	v := b.Var(name, w)
	if lo.Width() != w || hi.Width() != w {
		panic("ir: range bounds width mismatch")
	}
	v.HasRange = true
	v.Lo, v.Hi = lo, hi
	return v
}

// Const returns the literal with the given value.
func (b *Builder) Const(v apint.Int) *Inst {
	k := constKey{v.Width(), v.Uint64()}
	if c, ok := b.consts[k]; ok {
		return c
	}
	c := b.assignID(&Inst{Op: OpConst, Width: v.Width(), Val: v})
	b.consts[k] = c
	return c
}

// ConstInt is shorthand for Const(apint.New(w, v)).
func (b *Builder) ConstInt(w uint, v uint64) *Inst { return b.Const(apint.New(w, v)) }

// Build constructs (or reuses) an instruction. It validates arity, widths,
// and flags, so an Inst obtained from a Builder is always well formed.
func (b *Builder) Build(op Op, flags Flags, args ...*Inst) *Inst {
	info := op.info()
	if op == OpVar || op == OpConst {
		panic("ir: Build cannot create leaves; use Var/Const")
	}
	if len(args) != info.arity {
		panic(fmt.Sprintf("ir: %s expects %d operands, got %d", op, info.arity, len(args)))
	}
	if flags&^info.validFlags != 0 {
		panic(fmt.Sprintf("ir: invalid flags%s for %s", flags, op))
	}
	var w uint
	switch {
	case info.isCast:
		panic("ir: casts need an explicit width; use BuildCast")
	case info.isCmp || info.boolResult:
		if args[0].Width != args[1].Width {
			panic(fmt.Sprintf("ir: %s operand width mismatch %d vs %d", op, args[0].Width, args[1].Width))
		}
		w = 1
	case op == OpSelect:
		if args[0].Width != 1 {
			panic("ir: select condition must be i1")
		}
		if args[1].Width != args[2].Width {
			panic(fmt.Sprintf("ir: select arm width mismatch %d vs %d", args[1].Width, args[2].Width))
		}
		w = args[1].Width
	default:
		w = args[0].Width
		for _, a := range args[1:] {
			if a.Width != w {
				panic(fmt.Sprintf("ir: %s operand width mismatch %d vs %d", op, w, a.Width))
			}
		}
	}
	return b.intern(op, w, flags, args)
}

// BuildCast constructs a zext/sext/trunc to the given width.
func (b *Builder) BuildCast(op Op, w uint, arg *Inst) *Inst {
	if !op.IsCast() {
		panic(fmt.Sprintf("ir: BuildCast on non-cast %s", op))
	}
	switch op {
	case OpTrunc:
		if w >= arg.Width {
			panic(fmt.Sprintf("ir: trunc i%d to i%d must narrow", arg.Width, w))
		}
	default:
		if w <= arg.Width {
			panic(fmt.Sprintf("ir: %s i%d to i%d must widen", op, arg.Width, w))
		}
	}
	return b.intern(op, w, 0, []*Inst{arg})
}

func (b *Builder) intern(op Op, w uint, flags Flags, args []*Inst) *Inst {
	k := exprKey{op: op, width: w, flags: flags}
	k.a0 = args[0]
	if len(args) > 1 {
		k.a1 = args[1]
	}
	if len(args) > 2 {
		k.a2 = args[2]
	}
	if n, ok := b.exprs[k]; ok {
		return n
	}
	n := b.assignID(&Inst{Op: op, Width: w, Flags: flags, Args: append([]*Inst(nil), args...)})
	b.exprs[k] = n
	return n
}

// Convenience constructors for the common shapes.

// Add builds a wrapping addition.
func (b *Builder) Add(x, y *Inst) *Inst { return b.Build(OpAdd, 0, x, y) }

// Sub builds a wrapping subtraction.
func (b *Builder) Sub(x, y *Inst) *Inst { return b.Build(OpSub, 0, x, y) }

// Mul builds a wrapping multiplication.
func (b *Builder) Mul(x, y *Inst) *Inst { return b.Build(OpMul, 0, x, y) }

// And builds a bitwise conjunction.
func (b *Builder) And(x, y *Inst) *Inst { return b.Build(OpAnd, 0, x, y) }

// Or builds a bitwise disjunction.
func (b *Builder) Or(x, y *Inst) *Inst { return b.Build(OpOr, 0, x, y) }

// Xor builds a bitwise exclusive-or.
func (b *Builder) Xor(x, y *Inst) *Inst { return b.Build(OpXor, 0, x, y) }

// Shl builds a left shift.
func (b *Builder) Shl(x, y *Inst) *Inst { return b.Build(OpShl, 0, x, y) }

// LShr builds a logical right shift.
func (b *Builder) LShr(x, y *Inst) *Inst { return b.Build(OpLShr, 0, x, y) }

// AShr builds an arithmetic right shift.
func (b *Builder) AShr(x, y *Inst) *Inst { return b.Build(OpAShr, 0, x, y) }

// Select builds a ternary conditional.
func (b *Builder) Select(c, t, f *Inst) *Inst { return b.Build(OpSelect, 0, c, t, f) }

// ZExt builds a zero extension to width w.
func (b *Builder) ZExt(x *Inst, w uint) *Inst { return b.BuildCast(OpZExt, w, x) }

// SExt builds a sign extension to width w.
func (b *Builder) SExt(x *Inst, w uint) *Inst { return b.BuildCast(OpSExt, w, x) }

// Trunc builds a truncation to width w.
func (b *Builder) Trunc(x *Inst, w uint) *Inst { return b.BuildCast(OpTrunc, w, x) }

// Function wraps root into a Function, collecting its reachable variables
// in creation order and recording its instruction order for Insts.
func (b *Builder) Function(root *Inst) *Function {
	order := topoOrder(root)
	var used []*Inst
	for _, n := range order {
		if n.IsVar() {
			used = append(used, n)
		}
	}
	var vars []*Inst
	for _, v := range b.varSeq {
		if slices.Contains(used, v) {
			vars = append(vars, v)
		}
	}
	return &Function{Root: root, Vars: vars, order: order}
}
