package bitblast

import (
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
)

// checkAgainstEval exhaustively compares the circuit with the interpreter:
// for every input assignment, WellDefined must equal eval's ok, and the
// output word must equal eval's value on well-defined inputs.
func checkAgainstEval(t *testing.T, src string) {
	t.Helper()
	f := ir.MustParse(src)
	if eval.TotalInputBits(f) > 12 {
		t.Fatalf("test corpus function too wide: %s", src)
	}
	s := sat.New()
	b := Blast(s, f)

	litValue := func(l sat.Lit) bool {
		v := s.Value(l.Var())
		if l.IsNeg() {
			v = !v
		}
		return v
	}

	eval.ForEachInput(f, func(env eval.Env) bool {
		var assumptions []sat.Lit
		for v, word := range b.Inputs {
			val := env[v]
			for i := uint(0); i < val.Width(); i++ {
				l := word[i]
				if !val.Bit(i) {
					l = l.Not()
				}
				assumptions = append(assumptions, l)
			}
		}
		if got := s.Solve(assumptions...); got != sat.Sat {
			t.Fatalf("%s: circuit unsatisfiable for input %v", src, env)
		}
		want, wantOK := eval.Eval(f, env)
		gotOK := litValue(b.WellDefined)
		if gotOK != wantOK {
			t.Fatalf("%s: WellDefined = %v, eval ok = %v for %v", src, gotOK, wantOK, fmtEnv(f, env))
		}
		if wantOK {
			got := b.C.Value(b.Output)
			if got.Ne(want) {
				t.Fatalf("%s: circuit = %v, eval = %v for %v", src, got, want, fmtEnv(f, env))
			}
		}
		return true
	})
}

func fmtEnv(f *ir.Function, env eval.Env) map[string]uint64 {
	m := make(map[string]uint64)
	for _, v := range f.Vars {
		m[v.Name] = env[v].Uint64()
	}
	return m
}

func TestBlastArithmetic(t *testing.T) {
	for _, src := range []string{
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = add %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = sub %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = mul %x, %y\ninfer %0",
		"%x:i5 = var\n%y:i5 = var\n%0:i5 = mul %x, %y\ninfer %0",
		"%x:i1 = var\n%y:i1 = var\n%0:i1 = add %x, %y\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastFlaggedArithmetic(t *testing.T) {
	for _, src := range []string{
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = addnsw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = addnuw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = addnw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = subnsw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = subnuw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = mulnsw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = mulnuw %x, %y\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastDivRem(t *testing.T) {
	for _, src := range []string{
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = udiv %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = urem %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = sdiv %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = srem %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = udivexact %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = sdivexact %x, %y\ninfer %0",
		"%x:i3 = var\n%0:i3 = srem 4:i3, %x\ninfer %0",
		"%x:i4 = var\n%0:i4 = srem %x, 3:i4\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastShifts(t *testing.T) {
	for _, src := range []string{
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = shl %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = lshr %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = ashr %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = shlnuw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = shlnsw %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = lshrexact %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = ashrexact %x, %y\ninfer %0",
		"%x:i3 = var\n%y:i3 = var\n%0:i3 = shl %x, %y\ninfer %0", // non-power-of-two width
		"%x:i1 = var\n%y:i1 = var\n%0:i1 = shl %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = rotl %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = rotr %x, %y\ninfer %0",
		"%x:i3 = var\n%y:i3 = var\n%0:i3 = rotl %x, %y\ninfer %0",
		"%x:i3 = var\n%y:i3 = var\n%0:i3 = rotr %x, %y\ninfer %0",
		"%x:i1 = var\n%y:i1 = var\n%0:i1 = rotl %x, %y\ninfer %0", // amount urem 1
		"%x:i1 = var\n%y:i1 = var\n%0:i1 = rotr %x, %y\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastBitwiseAndCompare(t *testing.T) {
	for _, src := range []string{
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = and %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = or %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = xor %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = eq %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = ne %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = ult %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = ule %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = slt %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = sle %x, %y\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastSelectCastsIntrinsics(t *testing.T) {
	for _, src := range []string{
		"%c:i1 = var\n%x:i4 = var\n%y:i4 = var\n%0:i4 = select %c, %x, %y\ninfer %0",
		"%x:i4 = var\n%0:i8 = zext %x\ninfer %0",
		"%x:i4 = var\n%0:i8 = sext %x\ninfer %0",
		"%x:i8 = var\n%0:i3 = trunc %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = ctpop %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = cttz %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = ctlz %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = bswap %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = bitreverse %x\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastRangeMetadata(t *testing.T) {
	for _, src := range []string{
		"%x:i8 = var (range=[1,7))\ninfer %x",
		"%x:i8 = var (range=[1,0))\ninfer %x",
		"%x:i8 = var (range=[250,5))\ninfer %x",
		"%x:i8 = var (range=[-7,8))\n%0:i8 = add %x, 1:i8\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastCompositePaperExamples(t *testing.T) {
	for _, src := range []string{
		"%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0",
		"%x:i4 = var\n%y:i8 = var\n%0:i8 = zext %x\n%1:i8 = lshr %0, %y\ninfer %1",
		"%x:i4 = var\n%0:i4 = and 1:i4, %x\n%1:i4 = add %x, %0\ninfer %1",
		"%x:i4 = var\n%0:i4 = mulnsw 5:i4, %x\n%1:i4 = srem %0, 5:i4\ninfer %1",
		"%x:i8 = var\n%0:i1 = eq 0:i8, %x\n%1:i8 = select %0, 1:i8, %x\ninfer %1",
		"%x:i8 = var\n%0:i8 = sub 0:i8, %x\n%1:i8 = and %x, %0\ninfer %1",
	} {
		checkAgainstEval(t, src)
	}
}

func TestBlastSharedInputsTwoCopies(t *testing.T) {
	// The demanded-bits pattern: blast f twice, second copy with one input
	// bit pinned to zero; check the miter against brute force.
	f := ir.MustParse("%x:i4 = var\n%0:i4 = udiv %x, 5:i4\ninfer %0")
	s := sat.New()
	b1 := Blast(s, f)
	v := f.Vars[0]

	// Copy with bit 0 of x forced to zero.
	forced := append(Word{}, b1.Inputs[v]...)
	forced[0] = b1.C.False()
	b2 := BlastWith(b1.C, f, map[*ir.Inst]Word{v: forced})

	differ := b1.C.Eq(b1.Output, b2.Output).Not()
	cond := b1.C.AndN(b1.WellDefined, b2.WellDefined, differ)
	got := s.Solve(cond)

	// Brute force: does forcing bit 0 of x ever change x udiv 5?
	want := false
	for x := uint64(0); x < 16; x++ {
		a := apint.New(4, x).UDiv(apint.New(4, 5))
		bb := apint.New(4, x&^1).UDiv(apint.New(4, 5))
		if a.Ne(bb) {
			want = true
		}
	}
	if (got == sat.Sat) != want {
		t.Errorf("miter solve = %v, brute force differ = %v", got, want)
	}
}

func TestCircuitGateSimplification(t *testing.T) {
	s := sat.New()
	c := NewCircuit(s)
	a := c.Lit()
	if c.And(a, c.True()) != a || c.And(c.False(), a) != c.False() {
		t.Error("And constant folding wrong")
	}
	if c.Or(a, c.False()) != a || c.Or(c.True(), a) != c.True() {
		t.Error("Or constant folding wrong")
	}
	if c.Xor(a, c.False()) != a || c.Xor(a, c.True()) != a.Not() {
		t.Error("Xor constant folding wrong")
	}
	if c.And(a, a) != a || c.And(a, a.Not()) != c.False() {
		t.Error("And idempotence/contradiction wrong")
	}
	if c.Xor(a, a) != c.False() || c.Xor(a, a.Not()) != c.True() {
		t.Error("Xor self rules wrong")
	}
	if c.Mux(c.True(), a, c.False()) != a {
		t.Error("Mux constant select wrong")
	}
}

func TestConstWordRoundTrip(t *testing.T) {
	s := sat.New()
	c := NewCircuit(s)
	v := apint.New(8, 0xA5)
	w := c.ConstWord(v)
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v", got)
	}
	if got := c.Value(w); got.Ne(v) {
		t.Errorf("ConstWord round trip = %v", got)
	}
}

func TestBlastNewOps(t *testing.T) {
	for _, src := range []string{
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = umin %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = umax %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = smin %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i4 = smax %x, %y\ninfer %0",
		"%x:i4 = var\n%0:i4 = abs %x\ninfer %0",
		"%a:i4 = var\n%b:i4 = var\n%s:i4 = var\n%0:i4 = fshl %a, %b, %s\ninfer %0",
		"%a:i4 = var\n%b:i4 = var\n%s:i4 = var\n%0:i4 = fshr %a, %b, %s\ninfer %0",
		"%a:i3 = var\n%b:i3 = var\n%s:i3 = var\n%0:i3 = fshl %a, %b, %s\ninfer %0",
		"%a:i3 = var\n%b:i3 = var\n%s:i3 = var\n%0:i3 = fshr %a, %b, %s\ninfer %0",
		"%a:i1 = var\n%b:i1 = var\n%s:i1 = var\n%0:i1 = fshl %a, %b, %s\ninfer %0", // amount urem 1
		"%a:i1 = var\n%b:i1 = var\n%s:i1 = var\n%0:i1 = fshr %a, %b, %s\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = uaddo %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = saddo %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = usubo %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = ssubo %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = umulo %x, %y\ninfer %0",
		"%x:i4 = var\n%y:i4 = var\n%0:i1 = smulo %x, %y\ninfer %0",
		"%x:i5 = var\n%y:i5 = var\n%0:i1 = smulo %x, %y\ninfer %0",
	} {
		checkAgainstEval(t, src)
	}
}
