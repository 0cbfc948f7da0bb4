package llvmir

import (
	"strings"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

func TestParsePaperStyleFragments(t *testing.T) {
	// The exact notation the paper prints in §4.2–4.5.
	cases := []string{
		"%0 = shl i8 32, %x",
		"%0 = zext i4 %x to i8\n%1 = lshr i8 %0, %y",
		"%0 = and i8 1, %x\n%1 = add i8 %x, %0",
		"%0 = mul nsw i8 10, %x\n%1 = srem i8 %0, 10",
		"%x = range [0,5)\n%0 = add i8 1, %x",
		"%0 = icmp slt i8 %x, 0",
		"%0 = udiv i16 %x, 1000",
		"%0 = icmp eq i32 0, %x\n%1 = select i1 %0, i32 1, i32 %x",
		"%x = range [1,7)\n%0 = and i32 4294967295, %x",
		"%0 = srem i32 %x, 8",
		"%0 = udiv i64 128, %x",
		"%x = range [1,0)\n%0 = sub i64 0, %x\n%1 = and i64 %x, %0",
		"%0 = and i32 7, %x\n%1 = shl i32 1, %0\n%2 = trunc i32 %1 to i8",
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if err := ir.Verify(f); err != nil {
			t.Errorf("Parse(%q) invalid: %v", src, err)
		}
	}
}

func TestParseRangeMetadata(t *testing.T) {
	f := MustParse("%x = range [0,5)\n%0 = add i8 1, %x")
	v := f.Vars[0]
	if !v.HasRange || v.Lo.Uint64() != 0 || v.Hi.Uint64() != 5 {
		t.Errorf("range = [%v,%v) hasRange=%v", v.Lo, v.Hi, v.HasRange)
	}
	if v.Width != 8 {
		t.Errorf("width inferred = %d, want 8 (from use site)", v.Width)
	}
}

func TestParseRetSelectsRoot(t *testing.T) {
	f := MustParse(`
		define i8 @f(i8 %x) {
		  %t0 = add i8 %x, 1
		  %t1 = mul i8 %t0, 3
		  ret i8 %t0
		}
	`)
	if f.Root.Op != ir.OpAdd {
		t.Errorf("root = %v, want the ret operand (add)", f.Root.Op)
	}
}

func TestParseLastAssignmentIsDefaultRoot(t *testing.T) {
	f := MustParse("%0 = add i8 %x, 1\n%1 = mul i8 %0, 3")
	if f.Root.Op != ir.OpMul {
		t.Errorf("root = %v, want mul", f.Root.Op)
	}
}

func TestParseInvertedPredicates(t *testing.T) {
	cases := map[string]ir.Op{
		"%0 = icmp ugt i8 %x, %y": ir.OpULT,
		"%0 = icmp uge i8 %x, %y": ir.OpULE,
		"%0 = icmp sgt i8 %x, %y": ir.OpSLT,
		"%0 = icmp sge i8 %x, %y": ir.OpSLE,
	}
	for src, wantOp := range cases {
		f := MustParse(src)
		if f.Root.Op != wantOp {
			t.Errorf("%s: op = %v, want %v (swapped)", src, f.Root.Op, wantOp)
		}
		// Operand order must be swapped: %y first.
		if f.Root.Args[0].Name != "y" {
			t.Errorf("%s: operands not swapped", src)
		}
	}
}

func TestParseIntrinsics(t *testing.T) {
	cases := map[string]ir.Op{
		"%0 = call i8 @llvm.ctpop.i8(i8 %x)":              ir.OpCtPop,
		"%0 = call i16 @llvm.bswap.i16(i16 %x)":           ir.OpBSwap,
		"%0 = call i8 @llvm.bitreverse.i8(i8 %x)":         ir.OpBitReverse,
		"%0 = call i8 @llvm.cttz.i8(i8 %x, i1 false)":     ir.OpCttz,
		"%0 = call i8 @llvm.ctlz.i8(i8 %x, i1 false)":     ir.OpCtlz,
		"%0 = call i8 @llvm.fshl.i8(i8 %x, i8 %x, i8 %y)": ir.OpRotL,
		"%0 = call i8 @llvm.fshr.i8(i8 %x, i8 %x, i8 %y)": ir.OpRotR,
		"%0 = call i8 @llvm.fshl.i8(i8 %x, i8 %y, i8 %z)": ir.OpFshl,
		"%0 = call i8 @llvm.umin.i8(i8 %x, i8 %y)":        ir.OpUMin,
		"%0 = call i8 @llvm.smax.i8(i8 %x, i8 %y)":        ir.OpSMax,
		"%0 = call i8 @llvm.abs.i8(i8 %x, i1 false)":      ir.OpAbs,
		"%0 = call i1 @souper.uaddo.i8(i8 %x, i8 %y)":     ir.OpUAddO,
		"%0 = call i1 @souper.smulo.i8(i8 %x, i8 %y)":     ir.OpSMulO,
	}
	for src, wantOp := range cases {
		f := MustParse(src)
		if f.Root.Op != wantOp {
			t.Errorf("%s: op = %v, want %v", src, f.Root.Op, wantOp)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantErr string }{
		{"", "no instructions"},
		{"%0 = frob i8 %x, %y", "unknown instruction"},
		{"%0 = add i8 %x, %y\n%0 = add i8 %x, %y", "redefined"},
		{"%0 = add i99 %x, %y", "bad width"},
		{"%0 = icmp wat i8 %x, %y", "unknown icmp predicate"},
		{"%0 = add i8 %x, %y\n%1 = add i16 %0, %0", "used at i16"},
		{"%0 = call i8 @memcpy(i8 %x)", "unsupported callee"},
		{"%0 = call i8 @llvm.fshl.i8(i8 %x, i8 %y)", "three arguments"},
		{"%0 = call i8 @llvm.umin.i8(i8 %x)", "two arguments"},
		{"%0 = and nsw i8 %x, %y", "invalid flags"},
		{"%0 = add i8 %x", "two operands"},
		{"%0 = add i8 %a b, 1", "bad name"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.wantErr)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0",
		"%x:i4 = var\n%y:i8 = var\n%0:i8 = zext %x\n%1:i8 = lshr %0, %y\ninfer %1",
		"%x:i8 = var (range=[0,5))\n%0:i8 = add 1:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = mulnsw 10:i8, %x\n%1:i8 = srem %0, 10:i8\ninfer %1",
		"%a:i8 = var\n%b:i8 = var\n%0:i1 = ult %a, %b\n%1:i8 = select %0, %a, %b\ninfer %1",
		"%x:i8 = var\n%0:i8 = ctpop %x\n%1:i8 = rotl %0, %x\ninfer %1",
		"%x:i16 = var\n%0:i16 = bswap %x\n%1:i8 = trunc %0\ninfer %1",
		"%x:i8 = var\n%0:i8 = addnuw %x, 1:i8\n%1:i8 = lshrexact %0, 1:i8\ninfer %1",
		"%x:i8 = var\n%0:i8 = cttz %x\n%1:i8 = ctlz %x\n%2:i8 = xor %0, %1\ninfer %2",
		"%x:i8 = var\n%y:i8 = var\n%0:i8 = umin %x, %y\n%1:i8 = smax %0, %y\n%2:i8 = abs %1\ninfer %2",
		"%a:i4 = var\n%b:i4 = var\n%s:i4 = var\n%0:i4 = fshl %a, %b, %s\ninfer %0",
		"%x:i8 = var\n%y:i8 = var\n%0:i1 = uaddo %x, %y\n%1:i1 = ssubo %x, %y\n%2:i1 = and %0, %1\ninfer %2",
	}
	for _, src := range srcs {
		orig := ir.MustParse(src)
		printed := Print(orig)
		back, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of:\n%s: %v", printed, err)
			continue
		}
		// Semantic equivalence on all inputs (both must agree including
		// on which inputs are UB — range metadata round-trips through
		// the extended "%x = range [a,b)" form).
		if eval.TotalInputBits(orig) > 16 {
			continue
		}
		varByName := map[string]*ir.Inst{}
		for _, v := range back.Vars {
			varByName[v.Name] = v
		}
		eval.ForEachInput(orig, func(env eval.Env) bool {
			env2 := make(eval.Env)
			for _, v := range orig.Vars {
				nv, ok := varByName[v.Name]
				if !ok {
					t.Fatalf("var %%%s lost in round trip:\n%s", v.Name, printed)
				}
				env2[nv] = env[v]
			}
			want, ok1 := eval.Eval(orig, env)
			got, ok2 := eval.Eval(back, env2)
			if ok1 != ok2 || (ok1 && want.Ne(got)) {
				t.Fatalf("round trip differs on %v: (%v,%v) vs (%v,%v)\n%s",
					env, want, ok1, got, ok2, printed)
			}
			return true
		})
	}
}

func TestPrintContainsSignature(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%y:i4 = var\n%0:i8 = zext %y\n%1:i8 = add %x, %0\ninfer %1")
	s := Print(f)
	if !strings.Contains(s, "define i8 @f(i8 %x, i4 %y)") {
		t.Errorf("missing signature:\n%s", s)
	}
	if !strings.Contains(s, "ret i8") {
		t.Errorf("missing ret:\n%s", s)
	}
}

func TestSameCodeBothAnalysesSee(t *testing.T) {
	// The souper2llvm purpose: the Souper text and LLVM text of the same
	// function must evaluate identically (here: constant folding check).
	souper := ir.MustParse("%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0")
	llvm := MustParse("%0 = shl i8 32, %x")
	env1 := eval.Env{souper.Vars[0]: evalConst(8, 2)}
	env2 := eval.Env{llvm.Vars[0]: evalConst(8, 2)}
	v1, ok1 := eval.Eval(souper, env1)
	v2, ok2 := eval.Eval(llvm, env2)
	if !ok1 || !ok2 || v1.Ne(v2) {
		t.Errorf("representations disagree: %v vs %v", v1, v2)
	}
}

func evalConst(w uint, v uint64) apint.Int {
	return apint.New(w, v)
}

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	inputs := []string{
		"", "%", "ret", "ret i8", "ret i8 %x %y",
		"%0 = icmp", "%0 = select i1", "%0 = zext i8 %x to",
		"%0 = call", "%0 = call i8", "%0 = call i8 @llvm.",
		"%0 = call i8 @llvm.ctpop.i8(", "%0 = call i8 @llvm.ctpop.i8()",
		"%x = range", "%x = range [",
		"define i8 @f( {", "\x00\x01", "%0 = add i8",
		"%0 = add i8 1, 2, 3",
		"%0 = trunc i8 %x to i16",
		"%0 = select i1 %c, i8 %x, i4 %y",
	}
	valid := "%0 = mul nsw i8 10, %x\n%1 = srem i8 %0, 10"
	for cut := 0; cut < len(valid); cut += 2 {
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
