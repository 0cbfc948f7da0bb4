package ir

import (
	"fmt"
	"strconv"
	"strings"

	"dfcheck/internal/apint"
)

// Parse reads a function in Souper textual form (the format produced by
// Function.String). Grammar, one statement per line:
//
//	%name:iN = var [(range=[lo,hi))]
//	%name:iN = op[flags] operand, operand ...
//	infer %name
//
// Names are made of letters, digits and '-', '$', '.', '_'. Operands are
// %name references or value:iN constants (value may be negative).
// Comments start with ';' and run to end of line.
func Parse(src string) (*Function, error) {
	p := &parser{b: NewBuilder(), defs: make(map[string]*Inst)}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.statement(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}
	if p.root == nil {
		return nil, fmt.Errorf("missing infer statement")
	}
	return p.b.Function(p.root), nil
}

// MustParse is Parse that panics on error, for tests and embedded corpora.
func MustParse(src string) *Function {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	b    *Builder
	defs map[string]*Inst
	root *Inst
}

func (p *parser) statement(line string) error {
	if rest, ok := strings.CutPrefix(line, "infer "); ok {
		if p.root != nil {
			return fmt.Errorf("duplicate infer")
		}
		n, err := p.operandRef(strings.TrimSpace(rest), 0)
		if err != nil {
			return err
		}
		p.root = n
		return nil
	}

	lhs, rhs, ok := strings.Cut(line, "=")
	if !ok {
		return fmt.Errorf("expected assignment or infer, got %q", line)
	}
	name, width, err := parseTypedName(strings.TrimSpace(lhs))
	if err != nil {
		return err
	}
	if _, dup := p.defs[name]; dup {
		return fmt.Errorf("%%%s redefined", name)
	}
	rhs = strings.TrimSpace(rhs)

	if rhs == "var" || strings.HasPrefix(rhs, "var ") || strings.HasPrefix(rhs, "var(") {
		v, err := p.parseVar(name, width, strings.TrimSpace(strings.TrimPrefix(rhs, "var")))
		if err != nil {
			return err
		}
		p.defs[name] = v
		return nil
	}

	mnemonic, operands, _ := strings.Cut(rhs, " ")
	op, flags, err := parseMnemonic(mnemonic)
	if err != nil {
		return err
	}
	var args []*Inst
	if strings.TrimSpace(operands) != "" {
		for _, tok := range strings.Split(operands, ",") {
			a, err := p.operand(strings.TrimSpace(tok), width, op, len(args))
			if err != nil {
				return err
			}
			args = append(args, a)
		}
	}
	if len(args) != op.Arity() {
		return fmt.Errorf("%s expects %d operands, got %d", op, op.Arity(), len(args))
	}

	n, err := p.build(op, flags, width, args)
	if err != nil {
		return err
	}
	if n.Width != width {
		return fmt.Errorf("%%%s declared i%d but %s produces i%d", name, width, op, n.Width)
	}
	p.defs[name] = n
	return nil
}

func (p *parser) build(op Op, flags Flags, width uint, args []*Inst) (n *Inst, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	if op.IsCast() {
		return p.b.BuildCast(op, width, args[0]), nil
	}
	return p.b.Build(op, flags, args...), nil
}

func (p *parser) parseVar(name string, width uint, attrs string) (*Inst, error) {
	if attrs == "" {
		return p.b.Var(name, width), nil
	}
	if !strings.HasPrefix(attrs, "(range=[") || !strings.HasSuffix(attrs, "))") {
		return nil, fmt.Errorf("bad var attribute %q (want (range=[lo,hi)))", attrs)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(attrs, "(range=["), "))")
	loStr, hiStr, ok := strings.Cut(body, ",")
	if !ok {
		return nil, fmt.Errorf("bad range %q", attrs)
	}
	lo, err := strconv.ParseInt(strings.TrimSpace(loStr), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad range lower bound: %v", err)
	}
	hi, err := strconv.ParseInt(strings.TrimSpace(hiStr), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad range upper bound: %v", err)
	}
	return p.b.VarRange(name, width, apint.NewSigned(width, lo), apint.NewSigned(width, hi)), nil
}

// operand parses an operand token. The expected width of a %ref is checked
// by Build; constants without explicit width inherit one from context
// (needed for shift amounts and select conditions, whose width differs from
// the result width in general — so constants in this IR always carry :iN;
// only an untyped token is an error).
func (p *parser) operand(tok string, resultWidth uint, op Op, argIdx int) (*Inst, error) {
	if strings.HasPrefix(tok, "%") {
		return p.operandRef(tok, resultWidth)
	}
	valStr, widthStr, ok := strings.Cut(tok, ":")
	if !ok {
		// Allow untyped constants where the width is unambiguous: any
		// operand of a width-preserving op, or the non-condition arms
		// of select.
		w := resultWidth
		if op.HasBoolResult() {
			return nil, fmt.Errorf("constant %q needs a :iN width in a comparison", tok)
		}
		if op == OpSelect && argIdx == 0 {
			w = 1
		}
		if op.IsCast() {
			return nil, fmt.Errorf("constant %q needs a :iN width in a cast", tok)
		}
		v, err := parseConstValue(valStr, w)
		if err != nil {
			return nil, err
		}
		return p.b.Const(v), nil
	}
	w, err := parseWidth(widthStr)
	if err != nil {
		return nil, err
	}
	v, err := parseConstValue(valStr, w)
	if err != nil {
		return nil, err
	}
	return p.b.Const(v), nil
}

func (p *parser) operandRef(tok string, _ uint) (*Inst, error) {
	if !strings.HasPrefix(tok, "%") {
		return nil, fmt.Errorf("expected %%name, got %q", tok)
	}
	n, ok := p.defs[tok[1:]]
	if !ok {
		return nil, fmt.Errorf("use of undefined value %s", tok)
	}
	return n, nil
}

func parseConstValue(s string, w uint) (apint.Int, error) {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return apint.New(w, v), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return apint.Int{}, fmt.Errorf("bad constant %q: %v", s, err)
	}
	return apint.NewSigned(w, v), nil
}

func parseTypedName(s string) (string, uint, error) {
	if !strings.HasPrefix(s, "%") {
		return "", 0, fmt.Errorf("expected %%name:iN, got %q", s)
	}
	name, widthStr, ok := strings.Cut(s[1:], ":")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("expected %%name:iN, got %q", s)
	}
	if !ValidName(name) {
		return "", 0, fmt.Errorf("bad name %q: want letters, digits, '-', '$', '.' and '_'", name)
	}
	w, err := parseWidth(widthStr)
	if err != nil {
		return "", 0, err
	}
	return name, w, nil
}

// ValidName reports whether s can name a value: it is made of LLVM's
// unquoted identifier characters, letters, digits and '-', '$', '.', '_',
// so that it prints as an operand in this text and in the LLVM-like one
// (internal/llvmir).
func ValidName(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("-$._", r))
	})
}

func parseWidth(s string) (uint, error) {
	if !strings.HasPrefix(s, "i") {
		return 0, fmt.Errorf("bad type %q (want iN)", s)
	}
	w, err := strconv.ParseUint(s[1:], 10, 8)
	if err != nil || w == 0 || w > apint.MaxWidth {
		return 0, fmt.Errorf("bad width %q (want 1..%d)", s, apint.MaxWidth)
	}
	return uint(w), nil
}

// parseMnemonic splits Souper's concatenated op+flag mnemonics:
// addnsw, addnuw, addnw, udivexact, ...
func parseMnemonic(s string) (Op, Flags, error) {
	if op, ok := OpFromName(s); ok {
		return op, 0, nil
	}
	for suffix, flags := range map[string]Flags{
		"nw":    FlagNSW | FlagNUW,
		"nsw":   FlagNSW,
		"nuw":   FlagNUW,
		"exact": FlagExact,
	} {
		if base, ok := strings.CutSuffix(s, suffix); ok {
			if op, ok := OpFromName(base); ok {
				if flags&^op.ValidFlags() != 0 {
					return OpInvalid, 0, fmt.Errorf("flag %q not valid for %s", suffix, base)
				}
				return op, flags, nil
			}
		}
	}
	return OpInvalid, 0, fmt.Errorf("unknown instruction %q", s)
}
