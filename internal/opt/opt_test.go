package opt

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// checkRefines verifies the optimizer's contract: on every input where the
// original executes without UB, the optimized program is also well-defined
// and computes the same value.
func checkRefines(t *testing.T, orig, opt *ir.Function, samples int) {
	t.Helper()
	varByName := make(map[string]*ir.Inst)
	for _, v := range opt.Vars {
		varByName[v.Name] = v
	}
	check := func(env eval.Env) {
		want, ok := eval.Eval(orig, env)
		if !ok {
			return
		}
		env2 := make(eval.Env, len(opt.Vars))
		for _, v := range orig.Vars {
			if nv, used := varByName[v.Name]; used {
				env2[nv] = env[v]
			}
		}
		got, ok2 := eval.Eval(opt, env2)
		if !ok2 {
			t.Fatalf("optimized program UB where original defined\norig:\n%sopt:\n%s", orig, opt)
		}
		if got.Ne(want) {
			t.Fatalf("optimized %v != original %v\norig:\n%sopt:\n%s", got, want, orig, opt)
		}
	}
	if eval.TotalInputBits(orig) <= 14 {
		eval.ForEachInput(orig, func(env eval.Env) bool { check(env); return true })
		return
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < samples; i++ {
		check(eval.RandomEnv(orig, rng))
	}
}

func TestOptimizeBaselineFoldsIdentities(t *testing.T) {
	cases := []struct {
		src      string
		maxInsts int
	}{
		{"%x:i8 = var\n%0:i8 = add %x, 0:i8\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = mul %x, 1:i8\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = and %x, 255:i8\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = or %x, 0:i8\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = xor %x, %x\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = sub %x, %x\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = mul %x, 0:i8\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = udiv %x, 1:i8\ninfer %0", 0},
		{"%x:i8 = var\n%0:i8 = shl %x, 0:i8\ninfer %0", 0},
		{"%0:i8 = add 3:i8, 4:i8\ninfer %0", 0},
		{"%c:i1 = var\n%x:i8 = var\n%0:i8 = select %c, %x, %x\ninfer %0", 0},
	}
	for _, c := range cases {
		f := ir.MustParse(c.src)
		got := Optimize(f, NewBaselineSource(f))
		if n := got.NumInsts(); n > c.maxInsts {
			t.Errorf("%s: %d instructions remain, want <= %d:\n%s", c.src, n, c.maxInsts, got)
		}
		checkRefines(t, f, got, 100)
	}
}

func TestOptimizeUsesRangeFacts(t *testing.T) {
	// [0,100) < [200,205) folds via LVI even in the baseline.
	f := ir.MustParse(`
		%a:i8 = var (range=[0,100))
		%b:i8 = var (range=[200,205))
		%0:i1 = ult %a, %b
		infer %0
	`)
	got := Optimize(f, NewBaselineSource(f))
	if !got.Root.IsConst() || !got.Root.ConstValue().IsOne() {
		t.Errorf("comparison not folded to true:\n%s", got)
	}
}

func TestOptimizePreciseFoldsMore(t *testing.T) {
	// The §4.2.1 mul/srem cluster folds with oracle facts only.
	src := "%x:i8 = var\n%0:i8 = mulnsw 10:i8, %x\n%1:i8 = srem %0, 10:i8\n%2:i8 = or %x, %1\ninfer %2"
	f := ir.MustParse(src)
	base := Optimize(f, NewBaselineSource(f))
	if base.NumInsts() < 3 {
		t.Errorf("baseline unexpectedly folded the cluster:\n%s", base)
	}
	f2 := ir.MustParse(src)
	prec := Optimize(f2, NewOracleSource(f2, 0))
	if prec.NumInsts() != 0 {
		t.Errorf("precise facts should reduce to %%x alone:\n%s", prec)
	}
	checkRefines(t, f, prec, 0)
}

func TestOptimizeIdempotent(t *testing.T) {
	for _, k := range Kernels {
		f := k.F()
		once := Optimize(f, NewBaselineSource(f))
		twice := Optimize(once, NewBaselineSource(once))
		if once.String() != twice.String() {
			t.Errorf("%s: baseline optimization not idempotent:\n%s\nvs\n%s", k.Name, once, twice)
		}
	}
}

func TestOptimizeKernelsRefine(t *testing.T) {
	for _, k := range Kernels {
		f := k.F()
		base := Optimize(f, NewBaselineSource(f))
		checkRefines(t, f, base, 300)
		f2 := k.F()
		prec := Optimize(f2, NewOracleSource(f2, 0))
		checkRefines(t, f2, prec, 300)
	}
}

func TestOptimizeRandomCorpusRefines(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed: 77, NumExprs: 120, MaxInsts: 6,
		Widths: []harvest.WidthWeight{{Width: 8, Weight: 1}},
	})
	for _, e := range corpus {
		got := Optimize(e.F, NewBaselineSource(e.F))
		checkRefines(t, e.F, got, 100)
	}
}

func TestMachineModels(t *testing.T) {
	amd, intel := AMD(), Intel()
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv %x, 3:i8\n%1:i8 = add %0, 1:i8\ninfer %1")
	if amd.StaticCycles(f) >= intel.StaticCycles(f) {
		t.Errorf("AMD division should be cheaper: amd=%d intel=%d",
			amd.StaticCycles(f), intel.StaticCycles(f))
	}
	// Constants and vars are free.
	free := ir.MustParse("%x:i8 = var\ninfer %x")
	if amd.StaticCycles(free) != 0 {
		t.Errorf("var-only kernel costs %d", amd.StaticCycles(free))
	}
}

func TestRunWorkloadRejectsUB(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv 1:i8, %x\ninfer %0")
	_, _, err := AMD().RunWorkload(f, []WorkloadEnv{{"x": 0}})
	if err == nil {
		t.Error("UB workload input not rejected")
	}
	_, outs, err := AMD().RunWorkload(f, []WorkloadEnv{{"x": 2}})
	if err != nil || outs[0] != 0 {
		t.Errorf("workload = %v, %v", outs, err)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-driven optimization is slow")
	}
	rows, err := RunTable2(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Table2Row{}
	var cycles strings.Builder
	for _, r := range rows {
		byKey[r.Benchmark+"/"+r.Machine] = r
		fmt.Fprintf(&cycles, "%-18s %-7s %8d %8d\n", r.Benchmark, r.Machine, r.BaselineCycles, r.PreciseCycles)
	}
	// The cycle counts are a pure function of the kernels, the two
	// optimizers and the machine models: any change to them shows here.
	want, err := os.ReadFile(filepath.Join("testdata", "table2-cycles.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := cycles.String(); got != string(want) {
		t.Errorf("baseline and precise cycles differ from testdata/table2-cycles.golden:\ngot:\n%swant:\n%s", got, want)
	}
	if len(byKey) != 12 {
		t.Fatalf("rows = %d, want 12 (6 benchmarks x 2 machines)", len(byKey))
	}

	for _, m := range []string{"AMD", "Intel"} {
		bc := byKey["bzip2 compress/"+m]
		bd := byKey["bzip2 decompress/"+m]
		gz := byKey["gzip compress/"+m]
		gd := byKey["gzip decompress/"+m]
		sf := byKey["Stockfish/"+m]
		sq := byKey["SQLite/"+m]

		// Paper shape: bzip2 compress wins big; SQLite and Stockfish
		// small positive; gzip and decompression neutral.
		if bc.SpeedupPct < 5 {
			t.Errorf("%s: bzip2 compress speedup = %.2f%%, want substantial", m, bc.SpeedupPct)
		}
		if bc.SpeedupPct <= sq.SpeedupPct || bc.SpeedupPct <= sf.SpeedupPct {
			t.Errorf("%s: bzip2 compress (%.2f%%) should dominate SQLite (%.2f%%) and Stockfish (%.2f%%)",
				m, bc.SpeedupPct, sq.SpeedupPct, sf.SpeedupPct)
		}
		if sq.SpeedupPct <= 0 || sf.SpeedupPct <= 0 {
			t.Errorf("%s: SQLite (%.2f%%) and Stockfish (%.2f%%) should see small wins",
				m, sq.SpeedupPct, sf.SpeedupPct)
		}
		if sq.SpeedupPct < sf.SpeedupPct {
			t.Errorf("%s: SQLite (%.2f%%) should beat Stockfish (%.2f%%) as in the paper",
				m, sq.SpeedupPct, sf.SpeedupPct)
		}
		for name, r := range map[string]Table2Row{"bzip2 decompress": bd, "gzip compress": gz, "gzip decompress": gd} {
			if r.SpeedupPct != 0 {
				t.Errorf("%s: %s speedup = %.2f%%, want 0 (no foldable redundancy)", m, name, r.SpeedupPct)
			}
		}
		// The precise compiler is the slow one (§4.6: hours per build).
		if bc.PreciseOptTime <= bc.BaselineOptTime {
			t.Errorf("%s: precise compile time %v should exceed baseline %v",
				m, bc.PreciseOptTime, bc.BaselineOptTime)
		}
	}
	// AMD's bzip2-compress win exceeds Intel's, as in Table 2.
	if byKey["bzip2 compress/AMD"].SpeedupPct <= byKey["bzip2 compress/Intel"].SpeedupPct {
		t.Errorf("AMD bzip2 compress (%.2f%%) should exceed Intel (%.2f%%)",
			byKey["bzip2 compress/AMD"].SpeedupPct, byKey["bzip2 compress/Intel"].SpeedupPct)
	}
}

func TestInstcombineRules(t *testing.T) {
	cases := []struct {
		name, src string
		maxInsts  int
	}{
		{"reassoc add", "%x:i8 = var\n%0:i8 = add %x, 3:i8\n%1:i8 = add %0, 4:i8\ninfer %1", 1},
		{"reassoc xor cancel", "%x:i8 = var\n%0:i8 = xor %x, 255:i8\n%1:i8 = xor %0, 255:i8\ninfer %1", 0},
		{"reassoc and", "%x:i8 = var\n%0:i8 = and %x, 240:i8\n%1:i8 = and %0, 60:i8\ninfer %1", 1},
		{"reassoc or const first", "%x:i8 = var\n%0:i8 = or 1:i8, %x\n%1:i8 = or 2:i8, %0\ninfer %1", 1},
		{"shl then lshr", "%x:i8 = var\n%0:i8 = shl %x, 3:i8\n%1:i8 = lshr %0, 3:i8\ninfer %1", 1},
		{"lshr then shl", "%x:i8 = var\n%0:i8 = lshr %x, 2:i8\n%1:i8 = shl %0, 2:i8\ninfer %1", 1},
		{"trunc of zext to source", "%x:i8 = var\n%0:i16 = zext %x\n%1:i8 = trunc %0\ninfer %1", 0},
		{"trunc of sext below source", "%x:i8 = var\n%0:i16 = sext %x\n%1:i4 = trunc %0\ninfer %1", 1},
		{"trunc of zext to intermediate", "%x:i4 = var\n%0:i16 = zext %x\n%1:i8 = trunc %0\ninfer %1", 1},
		{"zext of zext", "%x:i4 = var\n%0:i8 = zext %x\n%1:i16 = zext %0\ninfer %1", 1},
		{"sext of sext", "%x:i4 = var\n%0:i8 = sext %x\n%1:i16 = sext %0\ninfer %1", 1},
		{"sext of zext", "%x:i4 = var\n%0:i8 = zext %x\n%1:i16 = sext %0\ninfer %1", 1},
		{"trunc of trunc", "%x:i32 = var\n%0:i16 = trunc %x\n%1:i8 = trunc %0\ninfer %1", 1},
	}
	for _, c := range cases {
		f := ir.MustParse(c.src)
		got := Optimize(f, NewBaselineSource(f))
		if n := got.NumInsts(); n > c.maxInsts {
			t.Errorf("%s: %d instructions remain, want <= %d:\n%s", c.name, n, c.maxInsts, got)
		}
		checkRefines(t, f, got, 200)
	}
	// Flagged ops must not reassociate (the rule drops flags only when
	// there are none to drop).
	f := ir.MustParse("%x:i8 = var\n%0:i8 = addnsw %x, 3:i8\n%1:i8 = addnsw %0, 4:i8\ninfer %1")
	got := Optimize(f, NewBaselineSource(f))
	checkRefines(t, f, got, 200)
}

// TestConstantFoldMatchesInterpreter pins the optimizer's constant
// folder to eval.Eval (the semantics of record): for every non-leaf op,
// every legal flag set and operand widths 1..8, random constant operands
// must fold to exactly what execution produces, and be rejected exactly
// when execution is ill-defined.
func TestConstantFoldMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, op := range ir.AllOps() {
		for flags := ir.Flags(0); flags < 8; flags++ {
			if flags&^op.ValidFlags() != 0 {
				continue
			}
			for w := uint(1); w <= 8; w++ {
				for _, f := range singleOpFuncs(op, flags, w) {
					for trial := 0; trial < 64; trial++ {
						env := eval.RandomEnv(f, rng)
						want, wantOK := eval.Eval(f, env)
						b := ir.NewBuilder()
						args := make([]*ir.Inst, len(f.Root.Args))
						vals := make([]apint.Int, len(f.Root.Args))
						for i, a := range f.Root.Args {
							vals[i] = env[a]
							args[i] = b.Const(vals[i])
						}
						got, ok := foldConstants(f.Root, args)
						if ok != wantOK {
							t.Fatalf("%s%s i%d on %v: fold ok=%v, eval ok=%v", op, flags, f.Root.Width, vals, ok, wantOK)
						}
						if ok && got.Ne(want) {
							t.Fatalf("%s%s i%d on %v: fold=%v, eval=%v", op, flags, f.Root.Width, vals, got, want)
						}
					}
				}
			}
		}
	}
}

// singleOpFuncs returns the functions applying op with flags to fresh
// variables at operand width w: one per narrower width for the casts
// (trunc from w, extensions to w), none for bswap off byte widths.
func singleOpFuncs(op ir.Op, flags ir.Flags, w uint) []*ir.Function {
	var out []*ir.Function
	switch {
	case op.IsCast():
		for small := uint(1); small < w; small++ {
			b := ir.NewBuilder()
			if op == ir.OpTrunc {
				out = append(out, b.Function(b.BuildCast(op, small, b.Var("a", w))))
			} else {
				out = append(out, b.Function(b.BuildCast(op, w, b.Var("a", small))))
			}
		}
	case op == ir.OpBSwap && w%8 != 0:
	default:
		b := ir.NewBuilder()
		args := make([]*ir.Inst, op.Arity())
		for i := range args {
			width := w
			if op == ir.OpSelect && i == 0 {
				width = 1
			}
			args[i] = b.Var(string(rune('a'+i)), width)
		}
		out = append(out, b.Function(b.Build(op, flags, args...)))
	}
	return out
}

// TestSimplifyDemandedBits: instructions whose influence is masked away
// downstream collapse (SimplifyDemandedBits-lite).
func TestSimplifyDemandedBits(t *testing.T) {
	cases := []struct {
		name, src string
		maxInsts  int
	}{
		// High-byte junk OR'd in, then truncated away.
		{"or above trunc", "%x:i16 = var\n%y:i16 = var\n%0:i16 = shl %y, 8:i16\n%1:i16 = or %x, %0\n%2:i8 = trunc %1\ninfer %2", 1},
		// XOR with bits that the final mask clears.
		{"xor masked off", "%x:i8 = var\n%y:i8 = var\n%0:i8 = shl %y, 4:i8\n%1:i8 = xor %x, %0\n%2:i8 = and %1, 15:i8\ninfer %2", 2},
		// Adding a 256-aligned value cannot change the low byte.
		{"add aligned", "%x:i16 = var\n%y:i16 = var\n%0:i16 = shl %y, 8:i16\n%1:i16 = add %x, %0\n%2:i8 = trunc %1\ninfer %2", 1},
	}
	for _, c := range cases {
		f := ir.MustParse(c.src)
		got := Optimize(f, NewBaselineSource(f))
		if n := got.NumInsts(); n > c.maxInsts {
			t.Errorf("%s: %d instructions remain, want <= %d:\n%s", c.name, n, c.maxInsts, got)
		}
		checkRefines(t, f, got, 300)
	}
	// A demanded operand must NOT be dropped.
	f := ir.MustParse("%x:i16 = var\n%y:i16 = var\n%0:i16 = shl %y, 4:i16\n%1:i16 = or %x, %0\n%2:i8 = trunc %1\ninfer %2")
	got := Optimize(f, NewBaselineSource(f))
	if got.NumInsts() < 3 {
		t.Errorf("overlapping or was incorrectly dropped:\n%s", got)
	}
	checkRefines(t, f, got, 300)
}
