package ir

import (
	"strings"
	"testing"

	"dfcheck/internal/apint"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	one := b.ConstInt(8, 1)
	sum := b.Add(x, one)
	f := b.Function(sum)

	if f.Width() != 8 {
		t.Errorf("width = %d", f.Width())
	}
	if len(f.Vars) != 1 || f.Vars[0].Name != "x" {
		t.Errorf("vars = %v", f.Vars)
	}
	if f.NumInsts() != 1 {
		t.Errorf("NumInsts = %d, want 1", f.NumInsts())
	}
	if err := Verify(f); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestBuilderHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	s1 := b.Add(x, y)
	s2 := b.Add(x, y)
	if s1 != s2 {
		t.Error("identical adds not shared")
	}
	if b.Add(y, x) == s1 {
		t.Error("add with swapped operands should be distinct (no commutativity canonicalization)")
	}
	if b.ConstInt(8, 5) != b.ConstInt(8, 5) {
		t.Error("identical constants not shared")
	}
	if b.ConstInt(8, 5) == b.ConstInt(16, 5) {
		t.Error("constants of different widths shared")
	}
	if b.Var("x", 8) != x {
		t.Error("var lookup by name failed")
	}
	nsw := b.Build(OpAdd, FlagNSW, x, y)
	if nsw == s1 {
		t.Error("flagged op shared with unflagged")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder)
	}{
		{"width mismatch", func(b *Builder) { b.Add(b.Var("a", 8), b.Var("b", 16)) }},
		{"bad arity", func(b *Builder) { b.Build(OpAdd, 0, b.Var("a", 8)) }},
		{"bad flags", func(b *Builder) { b.Build(OpAnd, FlagNSW, b.Var("a", 8), b.Var("b", 8)) }},
		{"select cond width", func(b *Builder) { b.Select(b.Var("c", 8), b.Var("a", 8), b.Var("b", 8)) }},
		{"trunc widen", func(b *Builder) { b.Trunc(b.Var("a", 8), 16) }},
		{"zext narrow", func(b *Builder) { b.ZExt(b.Var("a", 8), 4) }},
		{"var redeclared", func(b *Builder) { b.Var("a", 8); b.Var("a", 16) }},
		{"leaf via Build", func(b *Builder) { b.Build(OpVar, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f(NewBuilder())
		})
	}
}

func TestParseSimple(t *testing.T) {
	f, err := Parse(`
		; the paper's srem example
		%0:i32 = var
		%1:i32 = srem %0, 3:i32
		infer %1
	`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Root.Op != OpSRem {
		t.Errorf("root op = %v", f.Root.Op)
	}
	if f.Root.Args[1].ConstValue().Uint64() != 3 {
		t.Errorf("const operand = %v", f.Root.Args[1].Val)
	}
	if len(f.Vars) != 1 || f.Vars[0].Name != "0" {
		t.Errorf("vars = %v", f.Vars)
	}
}

func TestParseRangeMetadata(t *testing.T) {
	f, err := Parse(`
		%x:i32 = var (range=[1,7))
		%0:i32 = and 4294967295:i32, %x
		infer %0
	`)
	if err != nil {
		t.Fatal(err)
	}
	v := f.Vars[0]
	if !v.HasRange || v.Lo.Uint64() != 1 || v.Hi.Uint64() != 7 {
		t.Errorf("range = [%v,%v) hasRange=%v", v.Lo, v.Hi, v.HasRange)
	}
}

func TestParseNegativeRange(t *testing.T) {
	f := MustParse(`
		%x:i8 = var (range=[-7,8))
		infer %x
	`)
	v := f.Vars[0]
	if v.Lo.Int64() != -7 || v.Hi.Int64() != 8 {
		t.Errorf("range = [%d,%d)", v.Lo.Int64(), v.Hi.Int64())
	}
}

func TestParseFlagsAndCasts(t *testing.T) {
	f := MustParse(`
		%x:i8 = var
		%0:i8 = mulnsw 10:i8, %x
		%1:i16 = sext %0
		%2:i16 = addnw %1, %1
		%3:i8 = trunc %2
		infer %3
	`)
	insts := f.Insts()
	var ops []string
	for _, n := range insts {
		if !n.IsVar() && !n.IsConst() {
			ops = append(ops, n.Op.String()+flagSuffix(n.Flags))
		}
	}
	want := "mulnsw sext addnw trunc"
	if got := strings.Join(ops, " "); got != want {
		t.Errorf("ops = %q, want %q", got, want)
	}
}

func TestParseSelectAndCmp(t *testing.T) {
	f := MustParse(`
		%x:i32 = var
		%0:i1 = eq 0:i32, %x
		%1:i32 = select %0, 1:i32, %x
		infer %1
	`)
	if f.Root.Op != OpSelect || f.Root.Width != 32 {
		t.Errorf("root = %v i%d", f.Root.Op, f.Root.Width)
	}
	if f.Root.Args[0].Width != 1 {
		t.Errorf("cond width = %d", f.Root.Args[0].Width)
	}
}

func TestParseUntypedConstant(t *testing.T) {
	// Untyped constants are allowed where the width is unambiguous.
	f := MustParse(`
		%x:i8 = var
		%0:i8 = add 1, %x
		infer %0
	`)
	if f.Root.Args[0].ConstValue().Width() != 8 {
		t.Errorf("inherited width = %d", f.Root.Args[0].ConstValue().Width())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no infer", "%x:i8 = var\n", "missing infer"},
		{"undefined", "%0:i8 = add %x, %y\ninfer %0", "undefined value"},
		{"redefined", "%x:i8 = var\n%x:i8 = var\ninfer %x", "redefined"},
		{"unknown op", "%x:i8 = var\n%0:i8 = frobnicate %x, %x\ninfer %0", "unknown instruction"},
		{"bad width", "%x:i99 = var\ninfer %x", "bad width"},
		{"zero width", "%x:i0 = var\ninfer %x", "bad width"},
		{"width mismatch decl", "%x:i8 = var\n%0:i16 = add %x, %x\ninfer %0", "declared i16"},
		{"arity", "%x:i8 = var\n%0:i8 = add %x\ninfer %0", "expects 2 operands"},
		{"bad flag", "%x:i8 = var\n%0:i8 = andnsw %x, %x\ninfer %0", "not valid"},
		{"duplicate infer", "%x:i8 = var\ninfer %x\ninfer %x", "duplicate infer"},
		{"bad range", "%x:i8 = var (range=[1..3))\ninfer %x", "bad range"},
		{"cmp untyped const", "%x:i8 = var\n%0:i1 = eq 0, %x\ninfer %0", "needs a :iN width"},
		{"bad name", "%a b:i8 = var\n%0:i8 = add %a b, 1:i8\ninfer %0", "bad name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Parse error = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0\n",
		"%x:i4 = var\n%y:i8 = var\n%0:i8 = zext %x\n%1:i8 = lshr %0, %y\ninfer %1\n",
		"%x:i8 = var (range=[0,5))\n%0:i8 = add 1:i8, %x\ninfer %0\n",
		"%x:i32 = var\n%0:i64 = sext %x\n%1:i64 = mulnw %0, %0\n%2:i1 = slt %1, 100:i64\ninfer %2\n",
		"%a:i16 = var\n%b:i16 = var\n%0:i1 = ult %a, %b\n%1:i16 = select %0, %a, %b\ninfer %1\n",
		"%x:i32 = var\n%0:i32 = ctpop %x\n%1:i32 = bswap %0\n%2:i32 = rotl %1, 3:i32\ninfer %2\n",
		"%x:i8 = var\n%y:i8 = var\n%0:i8 = umin %x, %y\n%1:i8 = smax %0, %x\n%2:i8 = abs %1\ninfer %2\n",
		"%a:i8 = var\n%b:i8 = var\n%s:i8 = var\n%0:i8 = fshl %a, %b, %s\n%1:i8 = fshr %b, %0, %s\ninfer %1\n",
		"%x:i8 = var\n%y:i8 = var\n%0:i1 = uaddo %x, %y\n%1:i1 = smulo %x, %y\n%2:i1 = xor %0, %1\ninfer %2\n",
	}
	for _, src := range srcs {
		f1 := MustParse(src)
		s1 := f1.String()
		f2 := MustParse(s1)
		s2 := f2.String()
		if s1 != s2 {
			t.Errorf("round trip not stable:\nfirst:\n%ssecond:\n%s", s1, s2)
		}
		if err := Verify(f2); err != nil {
			t.Errorf("Verify after round trip: %v", err)
		}
	}
}

func TestPrintSharing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	sq := b.Mul(x, x)
	f := b.Function(b.Add(sq, sq))
	s := f.String()
	if strings.Count(s, "mul") != 1 {
		t.Errorf("shared mul printed more than once:\n%s", s)
	}
}

func TestNumInstsCountsDAGNodes(t *testing.T) {
	// A diamond: (x+1)*(x+1) shared = 2 insts, not 3.
	b := NewBuilder()
	x := b.Var("x", 8)
	inc := b.Add(x, b.ConstInt(8, 1))
	f := b.Function(b.Mul(inc, inc))
	if got := f.NumInsts(); got != 2 {
		t.Errorf("NumInsts = %d, want 2", got)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	f := b.Function(b.Add(x, x))

	// Corrupt the DAG in ways the Builder can't produce.
	bad := &Inst{Op: OpAdd, Width: 8, Args: []*Inst{x}}
	if err := Verify(&Function{Root: bad, Vars: f.Vars}); err == nil {
		t.Error("Verify accepted wrong arity")
	}
	bad2 := &Inst{Op: OpEq, Width: 8, Args: []*Inst{x, x}}
	if err := Verify(&Function{Root: bad2, Vars: f.Vars}); err == nil {
		t.Error("Verify accepted non-i1 comparison")
	}
	bad3 := &Inst{Op: OpBSwap, Width: 4, Args: []*Inst{{Op: OpVar, Name: "v", Width: 4}}}
	if err := Verify(&Function{Root: bad3, Vars: []*Inst{bad3.Args[0]}}); err == nil {
		t.Error("Verify accepted bswap of width 4")
	}
	if err := Verify(&Function{Root: f.Root, Vars: nil}); err == nil {
		t.Error("Verify accepted missing Vars entry")
	}
	if err := Verify(nil); err == nil {
		t.Error("Verify accepted nil function")
	}
}

func TestOpMetadata(t *testing.T) {
	if !OpUDiv.IsDivRem() || !OpSRem.IsDivRem() || OpAdd.IsDivRem() {
		t.Error("IsDivRem wrong")
	}
	if !OpShl.IsShift() || OpRotL.IsShift() {
		t.Error("IsShift wrong")
	}
	if !OpEq.IsCmp() || OpSelect.IsCmp() {
		t.Error("IsCmp wrong")
	}
	if !OpZExt.IsCast() || OpAdd.IsCast() {
		t.Error("IsCast wrong")
	}
	if op, ok := OpFromName("ashr"); !ok || op != OpAShr {
		t.Error("OpFromName wrong")
	}
	if _, ok := OpFromName("nonsense"); ok {
		t.Error("OpFromName accepted nonsense")
	}
	if OpAdd.ValidFlags() != FlagNSW|FlagNUW {
		t.Error("ValidFlags wrong for add")
	}
}

func TestConstValuePanicsOnNonConst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ConstValue on var did not panic")
		}
	}()
	(&Inst{Op: OpVar, Width: 8, Name: "x"}).ConstValue()
}

func TestFunctionVarsOrderIsFirstUse(t *testing.T) {
	f := MustParse(`
		%b:i8 = var
		%a:i8 = var
		%0:i8 = add %a, %b
		infer %0
	`)
	if f.Vars[0].Name != "b" || f.Vars[1].Name != "a" {
		t.Errorf("vars order = %v", []string{f.Vars[0].Name, f.Vars[1].Name})
	}
	if got := f.SortedVarNames(); got[0] != "a" || got[1] != "b" {
		t.Errorf("sorted = %v", got)
	}
}

func TestLargeWidthBoundary(t *testing.T) {
	f := MustParse("%x:i64 = var\n%0:i64 = add %x, 18446744073709551615:i64\ninfer %0")
	if f.Root.Args[1].ConstValue().Ne(apint.AllOnes(64)) {
		t.Errorf("max u64 constant = %v", f.Root.Args[1].Val)
	}
}

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	// The parser must return errors, not panic, on arbitrary input —
	// including mutations of valid programs.
	inputs := []string{
		"", "%", "infer", "infer %", "%x:i8", "%x:i8 =", "%x:i8 = ",
		"%x:i8 = var (range=[)\ninfer %x",
		"%x:i8 = var (range=[1,2,3))\ninfer %x",
		"%:i8 = var\ninfer %",
		"%x:i8 = var\n%0:i8 = add %x,\ninfer %0",
		"%x:i8 = var\n%0:i8 = add , %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = select %x, %x, %x\ninfer %0",
		"%x:i8 = var\n%0:i4 = trunc %x\n%1:i8 = trunc %0\ninfer %1",
		"%x:i1 = var\n%0:i1 = bswap %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = zext %x\ninfer %0",
		"\x00\x01\x02", "====", "infer infer infer",
		"%x:i8 = var\ninfer %x extra",
		"%x:i8 = var\n%0:i8 = add %x, 99999999999999999999:i8\ninfer %0",
	}
	valid := "%x:i8 = var\n%0:i8 = mulnsw 10:i8, %x\n%1:i8 = srem %0, 10:i8\ninfer %1"
	for cut := 0; cut < len(valid); cut += 3 {
		inputs = append(inputs, valid[:cut], valid[cut:])
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Parse(%q) panicked: %v", in, r)
				}
			}()
			_, _ = Parse(in)
		}()
	}
}

// TestPrintAvoidsVarNameCollision: numeric variable names must not clash
// with the printer's instruction numbering — the printed form of every
// function re-parses (reduced findings keep var %0 after the instruction
// once named %0 is gone).
func TestPrintAvoidsVarNameCollision(t *testing.T) {
	srcs := []string{
		"%0:i3 = var\n%1:i3 = srem %0, 3:i3\ninfer %1",
		"%1:i8 = var\n%0:i8 = add %1, 1:i8\n%2:i8 = mul %0, %0\ninfer %2",
	}
	for _, src := range srcs {
		f := MustParse(src)
		g, err := Parse(f.String())
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\n%s", err, f.String())
		}
		if g.String() != f.String() {
			t.Fatalf("print not a fixpoint:\n%s\nvs\n%s", f.String(), g.String())
		}
	}
}
