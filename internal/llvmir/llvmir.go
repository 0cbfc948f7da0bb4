// Package llvmir translates between this repository's Souper-style IR and
// an LLVM-IR-flavoured textual form — the analog of the paper's
// souper2llvm tool (Figure 1), whose purpose is to guarantee that the
// compiler's analyses and the oracle see exactly the same code. It also
// lets users write fragments the way the paper prints them:
//
//	%0 = and i32 4294967295, %x
//
// Undeclared %names become input variables at the width the use site
// requires, and a trailing "ret <ty> %v" (or the paper's bare last
// assignment) selects the root.
package llvmir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
)

// Print renders f as an LLVM-like function definition named @f, with the
// input variables as parameters.
func Print(f *ir.Function) string {
	var sb strings.Builder
	sb.WriteString("define i")
	fmt.Fprintf(&sb, "%d @f(", f.Width())
	for i, v := range f.Vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "i%d %%%s", v.Width, v.Name)
	}
	sb.WriteString(") {\n")

	names := make(map[*ir.Inst]string)
	for _, v := range f.Vars {
		names[v] = "%" + v.Name
		if v.HasRange {
			// Emitted in the parseable extended form (LLVM proper
			// attaches !range metadata to loads/calls; our parser reads
			// this declaration before the variable's first use).
			fmt.Fprintf(&sb, "  %%%s = range [%d,%d)\n", v.Name, v.Lo.Int64(), v.Hi.Int64())
		}
	}
	next := 0
	for _, n := range f.Insts() {
		switch n.Op {
		case ir.OpVar:
			continue
		case ir.OpConst:
			names[n] = strconv.FormatUint(n.Val.Uint64(), 10)
			continue
		}
		name := fmt.Sprintf("%%t%d", next)
		for slices.ContainsFunc(f.Vars, func(v *ir.Inst) bool { return "%"+v.Name == name }) {
			next++ // a variable has the name
			name = fmt.Sprintf("%%t%d", next)
		}
		next++
		names[n] = name
		fmt.Fprintf(&sb, "  %s = %s\n", name, rhs(n, names))
	}
	fmt.Fprintf(&sb, "  ret i%d %s\n}\n", f.Width(), names[f.Root])
	return sb.String()
}

func rhs(n *ir.Inst, names map[*ir.Inst]string) string {
	ty := fmt.Sprintf("i%d", n.Width)
	a := func(i int) string { return names[n.Args[i]] }
	switch n.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem,
		ir.OpSRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		return fmt.Sprintf("%s%s %s %s, %s", n.Op, flagsText(n.Flags), ty, a(0), a(1))
	case ir.OpEq, ir.OpNe, ir.OpULT, ir.OpULE, ir.OpSLT, ir.OpSLE:
		return fmt.Sprintf("icmp %s i%d %s, %s", icmpName(n.Op), n.Args[0].Width, a(0), a(1))
	case ir.OpSelect:
		return fmt.Sprintf("select i1 %s, %s %s, %s %s", a(0), ty, a(1), ty, a(2))
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		return fmt.Sprintf("%s i%d %s to %s", n.Op, n.Args[0].Width, a(0), ty)
	case ir.OpCtPop:
		return fmt.Sprintf("call %s @llvm.ctpop.%s(%s %s)", ty, ty, ty, a(0))
	case ir.OpBSwap:
		return fmt.Sprintf("call %s @llvm.bswap.%s(%s %s)", ty, ty, ty, a(0))
	case ir.OpBitReverse:
		return fmt.Sprintf("call %s @llvm.bitreverse.%s(%s %s)", ty, ty, ty, a(0))
	case ir.OpCttz:
		return fmt.Sprintf("call %s @llvm.cttz.%s(%s %s, i1 false)", ty, ty, ty, a(0))
	case ir.OpCtlz:
		return fmt.Sprintf("call %s @llvm.ctlz.%s(%s %s, i1 false)", ty, ty, ty, a(0))
	case ir.OpRotL:
		return fmt.Sprintf("call %s @llvm.fshl.%s(%s %s, %s %s, %s %s)", ty, ty, ty, a(0), ty, a(0), ty, a(1))
	case ir.OpRotR:
		return fmt.Sprintf("call %s @llvm.fshr.%s(%s %s, %s %s, %s %s)", ty, ty, ty, a(0), ty, a(0), ty, a(1))
	case ir.OpFshl, ir.OpFshr:
		// A funnel shift of one value twice is LLVM's rotate, which Parse
		// reads back as rotl/rotr; the custom callee keeps it a funnel
		// shift.
		callee := "llvm"
		if n.Args[0] == n.Args[1] {
			callee = "souper"
		}
		return fmt.Sprintf("call %s @%s.%s.%s(%s %s, %s %s, %s %s)", ty, callee, n.Op, ty, ty, a(0), ty, a(1), ty, a(2))
	case ir.OpUMin, ir.OpUMax, ir.OpSMin, ir.OpSMax:
		return fmt.Sprintf("call %s @llvm.%s.%s(%s %s, %s %s)", ty, n.Op, ty, ty, a(0), ty, a(1))
	case ir.OpAbs:
		return fmt.Sprintf("call %s @llvm.abs.%s(%s %s, i1 false)", ty, ty, ty, a(0))
	case ir.OpUAddO, ir.OpSAddO, ir.OpUSubO, ir.OpSSubO, ir.OpUMulO, ir.OpSMulO:
		// Souper's decomposed overflow flag; LLVM proper returns a
		// struct from @llvm.*.with.overflow, so a custom callee keeps
		// the textual form one value.
		opTy := fmt.Sprintf("i%d", n.Args[0].Width)
		return fmt.Sprintf("call i1 @souper.%s.%s(%s %s, %s %s)", n.Op, opTy, opTy, a(0), opTy, a(1))
	}
	panic(fmt.Sprintf("llvmir: unhandled op %v", n.Op))
}

func flagsText(f ir.Flags) string {
	s := ""
	if f&ir.FlagNUW != 0 {
		s += " nuw"
	}
	if f&ir.FlagNSW != 0 {
		s += " nsw"
	}
	if f&ir.FlagExact != 0 {
		s += " exact"
	}
	return s
}

func icmpName(op ir.Op) string {
	switch op {
	case ir.OpEq:
		return "eq"
	case ir.OpNe:
		return "ne"
	case ir.OpULT:
		return "ult"
	case ir.OpULE:
		return "ule"
	case ir.OpSLT:
		return "slt"
	case ir.OpSLE:
		return "sle"
	}
	panic("llvmir: not a comparison")
}

// Parse reads an LLVM-like fragment: either a full "define … { … ret … }"
// body or the paper's bare assignment list. Undeclared %names become input
// variables, ordered as the define line lists them and otherwise by first
// use; "%x = range [a,b)" lines attach range metadata; the root is the
// ret operand, or the last assignment when there is no ret.
func Parse(src string) (*ir.Function, error) {
	p := &llParser{
		b:    ir.NewBuilder(),
		defs: map[string]*ir.Inst{},
		rng:  map[string][2]int64{},
	}
	var lastDef *ir.Inst
	var params []string // the define line's parameter names
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "define "):
			params = paramNames(line)
			continue
		case line == "" || line == "}":
			continue
		case strings.HasPrefix(line, "ret "):
			v, err := p.retOperand(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
			p.root = v
			continue
		}
		n, err := p.statement(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if n != nil {
			lastDef = n
		}
	}
	if p.root == nil {
		p.root = lastDef
	}
	if p.root == nil {
		return nil, fmt.Errorf("llvmir: no instructions")
	}
	f := p.b.Function(p.root)
	// Parameters first, in their order; other variables keep theirs.
	pos := func(v *ir.Inst) int {
		if i := slices.Index(params, v.Name); i >= 0 {
			return i
		}
		return len(params)
	}
	slices.SortStableFunc(f.Vars, func(a, b *ir.Inst) int { return pos(a) - pos(b) })
	return f, nil
}

// paramNames lists the names of a define line's "iN %name" parameters.
func paramNames(line string) []string {
	_, list, _ := strings.Cut(line, "(")
	list, _, _ = strings.Cut(list, ")")
	var names []string
	for _, param := range strings.Split(list, ",") {
		if _, name, ok := strings.Cut(strings.TrimSpace(param), " %"); ok {
			names = append(names, name)
		}
	}
	return names
}

// MustParse is Parse that panics on error.
func MustParse(src string) *ir.Function {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type llParser struct {
	b    *ir.Builder
	defs map[string]*ir.Inst
	rng  map[string][2]int64 // pending range metadata by var name
	root *ir.Inst
}

func (p *llParser) retOperand(line string) (*ir.Inst, error) {
	fields := strings.Fields(line) // ret iN %v
	if len(fields) != 3 {
		return nil, fmt.Errorf("bad ret %q", line)
	}
	w, err := parseType(fields[1])
	if err != nil {
		return nil, err
	}
	return p.operand(fields[2], w)
}

func (p *llParser) statement(line string) (*ir.Inst, error) {
	lhs, rhs, ok := strings.Cut(line, "=")
	if !ok {
		return nil, fmt.Errorf("expected assignment, got %q", line)
	}
	name := strings.TrimSpace(lhs)
	if !strings.HasPrefix(name, "%") {
		return nil, fmt.Errorf("bad name %q", name)
	}
	name = name[1:]
	rhs = strings.TrimSpace(rhs)

	// Range metadata declaration: %x = range [a,b)
	if rest, ok := strings.CutPrefix(rhs, "range "); ok {
		lo, hi, err := parseRange(strings.TrimSpace(rest))
		if err != nil {
			return nil, err
		}
		if _, exists := p.defs[name]; exists {
			return nil, fmt.Errorf("range metadata after use of %%%s", name)
		}
		p.rng[name] = [2]int64{lo, hi}
		return nil, nil
	}

	if _, dup := p.defs[name]; dup {
		return nil, fmt.Errorf("%%%s redefined", name)
	}
	n, err := p.instruction(rhs)
	if err != nil {
		return nil, err
	}
	p.defs[name] = n
	return n, nil
}

func (p *llParser) instruction(rhs string) (n *ir.Inst, err error) {
	// The Builder enforces width and arity invariants with panics;
	// surface them as parse errors.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	mnem, rest, _ := strings.Cut(rhs, " ")
	rest = strings.TrimSpace(rest)
	switch mnem {
	case "icmp":
		return p.icmp(rest)
	case "select":
		return p.selectInst(rest)
	case "zext", "sext", "trunc":
		return p.cast(mnem, rest)
	case "call":
		return p.call(rest)
	}
	// Binary op with optional flags: add [nuw] [nsw] iN a, b
	op, ok := ir.OpFromName(mnem)
	if !ok || !op.IsBinary() {
		return nil, fmt.Errorf("unknown instruction %q", mnem)
	}
	var flags ir.Flags
	for {
		switch {
		case strings.HasPrefix(rest, "nuw "):
			flags |= ir.FlagNUW
			rest = rest[4:]
		case strings.HasPrefix(rest, "nsw "):
			flags |= ir.FlagNSW
			rest = rest[4:]
		case strings.HasPrefix(rest, "exact "):
			flags |= ir.FlagExact
			rest = rest[6:]
		default:
			goto parsed
		}
	}
parsed:
	tyStr, operands, ok := strings.Cut(rest, " ")
	if !ok {
		return nil, fmt.Errorf("missing operands in %q", rhs)
	}
	w, err := parseType(tyStr)
	if err != nil {
		return nil, err
	}
	aStr, bStr, ok := strings.Cut(operands, ",")
	if !ok {
		return nil, fmt.Errorf("expected two operands in %q", rhs)
	}
	a, err := p.operand(strings.TrimSpace(aStr), w)
	if err != nil {
		return nil, err
	}
	bv, err := p.operand(strings.TrimSpace(bStr), w)
	if err != nil {
		return nil, err
	}
	if flags&^op.ValidFlags() != 0 {
		return nil, fmt.Errorf("invalid flags for %s", mnem)
	}
	return p.b.Build(op, flags, a, bv), nil
}

func (p *llParser) icmp(rest string) (*ir.Inst, error) {
	predStr, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return nil, fmt.Errorf("bad icmp %q", rest)
	}
	tyStr, operands, ok := strings.Cut(strings.TrimSpace(rest), " ")
	if !ok {
		return nil, fmt.Errorf("bad icmp operands %q", rest)
	}
	w, err := parseType(tyStr)
	if err != nil {
		return nil, err
	}
	aStr, bStr, ok := strings.Cut(operands, ",")
	if !ok {
		return nil, fmt.Errorf("bad icmp operands %q", operands)
	}
	a, err := p.operand(strings.TrimSpace(aStr), w)
	if err != nil {
		return nil, err
	}
	b, err := p.operand(strings.TrimSpace(bStr), w)
	if err != nil {
		return nil, err
	}
	// Map the inverted predicates by swapping.
	switch predStr {
	case "eq":
		return p.b.Build(ir.OpEq, 0, a, b), nil
	case "ne":
		return p.b.Build(ir.OpNe, 0, a, b), nil
	case "ult":
		return p.b.Build(ir.OpULT, 0, a, b), nil
	case "ule":
		return p.b.Build(ir.OpULE, 0, a, b), nil
	case "slt":
		return p.b.Build(ir.OpSLT, 0, a, b), nil
	case "sle":
		return p.b.Build(ir.OpSLE, 0, a, b), nil
	case "ugt":
		return p.b.Build(ir.OpULT, 0, b, a), nil
	case "uge":
		return p.b.Build(ir.OpULE, 0, b, a), nil
	case "sgt":
		return p.b.Build(ir.OpSLT, 0, b, a), nil
	case "sge":
		return p.b.Build(ir.OpSLE, 0, b, a), nil
	}
	return nil, fmt.Errorf("unknown icmp predicate %q", predStr)
}

func (p *llParser) selectInst(rest string) (*ir.Inst, error) {
	parts := strings.Split(rest, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad select %q", rest)
	}
	var vals [3]*ir.Inst
	for i, part := range parts {
		tyStr, valStr, ok := strings.Cut(strings.TrimSpace(part), " ")
		if !ok {
			return nil, fmt.Errorf("bad select operand %q", part)
		}
		w, err := parseType(tyStr)
		if err != nil {
			return nil, err
		}
		v, err := p.operand(strings.TrimSpace(valStr), w)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return p.b.Select(vals[0], vals[1], vals[2]), nil
}

func (p *llParser) cast(mnem, rest string) (*ir.Inst, error) {
	// zext i4 %x to i8
	body, toStr, ok := strings.Cut(rest, " to ")
	if !ok {
		return nil, fmt.Errorf("bad cast %q", rest)
	}
	tyStr, valStr, ok := strings.Cut(strings.TrimSpace(body), " ")
	if !ok {
		return nil, fmt.Errorf("bad cast operand %q", body)
	}
	srcW, err := parseType(tyStr)
	if err != nil {
		return nil, err
	}
	dstW, err := parseType(strings.TrimSpace(toStr))
	if err != nil {
		return nil, err
	}
	v, err := p.operand(strings.TrimSpace(valStr), srcW)
	if err != nil {
		return nil, err
	}
	op, _ := ir.OpFromName(mnem)
	return p.b.BuildCast(op, dstW, v), nil
}

func (p *llParser) call(rest string) (*ir.Inst, error) {
	// call iN @llvm.<name>.iN(iN %x[, ...])
	tyStr, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return nil, fmt.Errorf("bad call %q", rest)
	}
	w, err := parseType(tyStr)
	if err != nil {
		return nil, err
	}
	var prefix string
	switch {
	case strings.HasPrefix(rest, "@llvm."):
		prefix = "@llvm."
	case strings.HasPrefix(rest, "@souper."):
		prefix = "@souper."
	default:
		return nil, fmt.Errorf("unsupported callee in %q", rest)
	}
	nameEnd := strings.IndexByte(rest, '(')
	if nameEnd < 0 || !strings.HasSuffix(rest, ")") {
		return nil, fmt.Errorf("bad call syntax %q", rest)
	}
	callee := rest[len(prefix):nameEnd]
	intrinsic, _, _ := strings.Cut(callee, ".")
	argsText := rest[nameEnd+1 : len(rest)-1]
	var args []*ir.Inst
	for _, part := range strings.Split(argsText, ",") {
		tyS, valS, ok := strings.Cut(strings.TrimSpace(part), " ")
		if !ok {
			return nil, fmt.Errorf("bad call argument %q", part)
		}
		aw, err := parseType(tyS)
		if err != nil {
			return nil, err
		}
		v, err := p.operand(strings.TrimSpace(valS), aw)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	switch intrinsic {
	case "ctpop", "bswap", "bitreverse":
		op, _ := ir.OpFromName(intrinsic)
		return p.b.Build(op, 0, args[0]), nil
	case "cttz", "ctlz", "abs":
		op, _ := ir.OpFromName(intrinsic)
		return p.b.Build(op, 0, args[0]), nil // the poison flag arg is dropped
	case "umin", "umax", "smin", "smax",
		"uaddo", "saddo", "usubo", "ssubo", "umulo", "smulo":
		op, _ := ir.OpFromName(intrinsic)
		if len(args) != 2 {
			return nil, fmt.Errorf("%s expects two arguments", intrinsic)
		}
		return p.b.Build(op, 0, args[0], args[1]), nil
	case "fshl", "fshr":
		if len(args) != 3 {
			return nil, fmt.Errorf("funnel shifts take three arguments")
		}
		// LLVM's rotate form canonicalizes to rotl/rotr.
		if args[0] == args[1] && prefix == "@llvm." {
			if intrinsic == "fshl" {
				return p.b.Build(ir.OpRotL, 0, args[0], args[2]), nil
			}
			return p.b.Build(ir.OpRotR, 0, args[0], args[2]), nil
		}
		op, _ := ir.OpFromName(intrinsic)
		return p.b.Build(op, 0, args[0], args[1], args[2]), nil
	}
	_ = w
	return nil, fmt.Errorf("unsupported intrinsic %q", intrinsic)
}

// operand resolves a %name (declaring a variable at width w on first use)
// or an integer literal.
func (p *llParser) operand(tok string, w uint) (*ir.Inst, error) {
	if strings.HasPrefix(tok, "%") {
		name := tok[1:]
		if n, ok := p.defs[name]; ok {
			if n.Width != w {
				return nil, fmt.Errorf("%%%s used at i%d but has width i%d", name, w, n.Width)
			}
			return n, nil
		}
		if !ir.ValidName(name) {
			return nil, fmt.Errorf("bad name %q", tok)
		}
		var v *ir.Inst
		if r, ok := p.rng[name]; ok {
			v = p.b.VarRange(name, w, apint.NewSigned(w, r[0]), apint.NewSigned(w, r[1]))
			delete(p.rng, name)
		} else {
			v = p.b.Var(name, w)
		}
		p.defs[name] = v
		return v, nil
	}
	switch tok {
	case "false":
		return p.b.Const(apint.Zero(w)), nil
	case "true":
		return p.b.Const(apint.One(w)), nil
	}
	if v, err := strconv.ParseUint(tok, 10, 64); err == nil {
		return p.b.Const(apint.New(w, v)), nil
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad operand %q", tok)
	}
	return p.b.Const(apint.NewSigned(w, v)), nil
}

func parseType(s string) (uint, error) {
	if !strings.HasPrefix(s, "i") {
		return 0, fmt.Errorf("bad type %q", s)
	}
	w, err := strconv.ParseUint(s[1:], 10, 8)
	if err != nil || w == 0 || w > apint.MaxWidth {
		return 0, fmt.Errorf("bad width %q", s)
	}
	return uint(w), nil
}

func parseRange(s string) (int64, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	loS, hiS, ok := strings.Cut(s[1:len(s)-1], ",")
	if !ok {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	lo, err := strconv.ParseInt(strings.TrimSpace(loS), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	hi, err := strconv.ParseInt(strings.TrimSpace(hiS), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
