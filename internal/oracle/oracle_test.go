package oracle

import (
	"math/rand"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/solver"
)

// bruteFacts computes ground-truth maximally precise facts by enumerating
// every well-defined input.
type bruteFacts struct {
	feasible bool
	known    knownbits.Bits
	sign     uint
	nonZero  bool
	neg      bool
	nonNeg   bool
	pow2     bool
	// achievable outputs, for range checks
	outputs map[uint64]bool
}

func brute(t *testing.T, f *ir.Function) bruteFacts {
	t.Helper()
	w := f.Width()
	bf := bruteFacts{
		known:   knownbits.FromConst(apint.Zero(w)),
		sign:    w,
		nonZero: true, neg: true, nonNeg: true, pow2: true,
		outputs: make(map[uint64]bool),
	}
	first := true
	var zero, one apint.Int
	eval.ForEachInput(f, func(env eval.Env) bool {
		v, ok := eval.Eval(f, env)
		if !ok {
			return true
		}
		bf.feasible = true
		bf.outputs[v.Uint64()] = true
		if first {
			zero, one = v.Not(), v
			first = false
		} else {
			zero, one = zero.And(v.Not()), one.And(v)
		}
		if s := v.NumSignBits(); s < bf.sign {
			bf.sign = s
		}
		if v.IsZero() {
			bf.nonZero = false
		}
		if !v.IsNegative() {
			bf.neg = false
		}
		if v.IsNegative() {
			bf.nonNeg = false
		}
		if !v.IsPowerOfTwo() {
			bf.pow2 = false
		}
		return true
	})
	if bf.feasible {
		bf.known = knownbits.Make(zero, one)
	} else {
		bf.sign = w
	}
	return bf
}

// minimalRangeSize computes the smallest circular window covering all
// achievable outputs.
func minimalRangeSize(w uint, outputs map[uint64]bool) uint64 {
	if len(outputs) == 0 {
		return 0
	}
	total := uint64(1) << w
	if w == 64 {
		panic("minimalRangeSize: width too large for test")
	}
	// Largest circular gap between consecutive achievable values.
	var vals []uint64
	for v := range outputs {
		vals = append(vals, v)
	}
	// insertion sort (small sets)
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	maxGap := uint64(0)
	for i := 0; i < len(vals); i++ {
		next := vals[(i+1)%len(vals)]
		gap := (next - vals[i] - 1 + total) % total
		if len(vals) == 1 {
			gap = total - 1
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	return total - maxGap
}

var oracleCorpus = []string{
	"%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0",
	"%x:i4 = var\n%y:i8 = var\n%0:i8 = zext %x\n%1:i8 = lshr %0, %y\ninfer %1",
	"%x:i8 = var\n%0:i8 = and 1:i8, %x\n%1:i8 = add %x, %0\ninfer %1",
	"%x:i6 = var\n%0:i6 = mulnsw 10:i6, %x\n%1:i6 = srem %0, 10:i6\ninfer %1",
	"%x:i8 = var (range=[0,5))\n%0:i8 = add 1:i8, %x\ninfer %0",
	"%x:i8 = var\n%0:i8 = srem %x, 8:i8\ninfer %0",
	"%x:i8 = var\n%0:i8 = srem 4:i8, %x\ninfer %0",
	"%x:i8 = var\n%0:i8 = udiv 128:i8, %x\ninfer %0",
	"%x:i8 = var (range=[1,7))\n%0:i8 = and 255:i8, %x\ninfer %0",
	"%x:i8 = var\n%0:i1 = eq 0:i8, %x\n%1:i8 = select %0, 1:i8, %x\ninfer %1",
	"%x:i8 = var (range=[1,0))\n%0:i8 = sub 0:i8, %x\n%1:i8 = and %x, %0\ninfer %1",
	"%x:i8 = var (range=[1,3))\ninfer %x",
	"%x:i8 = var\n%0:i8 = udiv %x, 0:i8\ninfer %0", // dead
	"%x:i5 = var\n%y:i5 = var\n%0:i1 = ult %x, %y\n%1:i5 = select %0, %x, %y\ninfer %1",
	"%x:i8 = var\n%0:i8 = ashr %x, 5:i8\ninfer %0",
	"%x:i8 = var (range=[-7,8))\ninfer %x",
	"%x:i8 = var\n%0:i8 = and 7:i8, %x\n%1:i8 = shl 1:i8, %0\ninfer %1",
	"%x:i8 = var\n%0:i8 = urem %x, 10:i8\n%1:i8 = add 100:i8, %0\ninfer %1",
	"%x:i8 = var\n%y:i8 = var\n%0:i8 = umin %x, %y\n%1:i8 = umax %x, %y\n%2:i8 = sub %1, %0\ninfer %2",
	"%x:i8 = var (range=[-10,11))\n%0:i8 = abs %x\ninfer %0",
	"%a:i4 = var\n%b:i4 = var\n%s:i4 = var\n%0:i4 = fshl %a, %b, %s\ninfer %0",
	"%x:i8 = var (range=[0,100))\n%y:i8 = var (range=[0,100))\n%0:i1 = uaddo %x, %y\ninfer %0",
	"%x:i8 = var (range=[200,256))\n%y:i8 = var (range=[100,150))\n%0:i1 = uaddo %x, %y\ninfer %0",
}

func TestOracleMatchesBruteForce(t *testing.T) {
	for _, src := range oracleCorpus {
		f := ir.MustParse(src)
		bf := brute(t, f)

		kb := KnownBits(solver.NewSAT(f, 0), f)
		if kb.Exhausted {
			t.Fatalf("%s: known bits exhausted", src)
		}
		if kb.Feasible != bf.feasible {
			t.Fatalf("%s: feasible = %v, want %v", src, kb.Feasible, bf.feasible)
		}
		if bf.feasible && !kb.Bits.Eq(bf.known) {
			t.Errorf("%s: oracle known bits %s, brute force %s", src, kb.Bits, bf.known)
		}

		sb := SignBits(solver.NewSAT(f, 0), f)
		if bf.feasible && sb.NumSignBits != bf.sign {
			t.Errorf("%s: oracle sign bits %d, brute force %d", src, sb.NumSignBits, bf.sign)
		}

		nz := NonZero(solver.NewSAT(f, 0), f)
		if bf.feasible && nz.Proved != bf.nonZero {
			t.Errorf("%s: oracle non-zero %v, brute force %v", src, nz.Proved, bf.nonZero)
		}
		ng := Negative(solver.NewSAT(f, 0), f)
		if bf.feasible && ng.Proved != bf.neg {
			t.Errorf("%s: oracle negative %v, brute force %v", src, ng.Proved, bf.neg)
		}
		nn := NonNegative(solver.NewSAT(f, 0), f)
		if bf.feasible && nn.Proved != bf.nonNeg {
			t.Errorf("%s: oracle non-negative %v, brute force %v", src, nn.Proved, bf.nonNeg)
		}
		p2 := PowerOfTwo(solver.NewSAT(f, 0), f)
		if bf.feasible && p2.Proved != bf.pow2 {
			t.Errorf("%s: oracle power-of-two %v, brute force %v", src, p2.Proved, bf.pow2)
		}

		rg := IntegerRange(solver.NewSAT(f, 0), f)
		if bf.feasible {
			if rg.Exhausted {
				t.Fatalf("%s: range exhausted", src)
			}
			// Sound: contains every achievable output.
			for v := range bf.outputs {
				if !rg.Range.Contains(apint.New(f.Width(), v)) {
					t.Errorf("%s: oracle range %v misses output %d", src, rg.Range, v)
				}
			}
			// Maximally precise: matches the smallest covering window.
			wantSize := minimalRangeSize(f.Width(), bf.outputs)
			gotSize, huge := rg.Range.Size()
			if huge {
				t.Fatalf("%s: unexpected huge range", src)
			}
			if gotSize != wantSize {
				t.Errorf("%s: oracle range %v has size %d, optimal %d", src, rg.Range, gotSize, wantSize)
			}
		} else if !rg.Range.IsEmpty() {
			t.Errorf("%s: dead code range = %v, want empty", src, rg.Range)
		}
	}
}

func TestOracleSATAgreesWithEnum(t *testing.T) {
	for _, src := range oracleCorpus {
		f := ir.MustParse(src)
		if eval.TotalInputBits(f) > 12 {
			continue
		}
		se := func() solver.Engine { return solver.NewSAT(f, 0) }
		ee := func() solver.Engine { return solver.NewEnum(f) }

		if a, b := KnownBits(se(), f), KnownBits(ee(), f); !a.Bits.Eq(b.Bits) {
			t.Errorf("%s: known bits differ sat=%v enum=%v", src, a.Bits, b.Bits)
		}
		if a, b := SignBits(se(), f), SignBits(ee(), f); a.NumSignBits != b.NumSignBits {
			t.Errorf("%s: sign bits differ sat=%d enum=%d", src, a.NumSignBits, b.NumSignBits)
		}
		if a, b := IntegerRange(se(), f), IntegerRange(ee(), f); !a.Range.Eq(b.Range) {
			t.Errorf("%s: range differs sat=%v enum=%v", src, a.Range, b.Range)
		}
		da, db := DemandedBits(se(), f), DemandedBits(ee(), f)
		for _, v := range f.Vars {
			if da.Demanded[v.Name].Ne(db.Demanded[v.Name]) {
				t.Errorf("%s: demanded %%%s differ sat=%s enum=%s", src, v.Name,
					da.Demanded[v.Name].BitString(), db.Demanded[v.Name].BitString())
			}
		}
	}
}

// --- The paper's precise results (§4.2–4.5), at the paper's widths ---

func TestPaperPreciseKnownBits(t *testing.T) {
	cases := []struct{ src, want string }{
		{"%x:i8 = var\n%0:i8 = shl 32:i8, %x\ninfer %0", "xxx00000"},
		{"%x:i4 = var\n%y:i8 = var\n%0:i8 = zext %x\n%1:i8 = lshr %0, %y\ninfer %1", "0000xxxx"},
		{"%x:i8 = var\n%0:i8 = and 1:i8, %x\n%1:i8 = add %x, %0\ninfer %1", "xxxxxxx0"},
		{"%x:i8 = var\n%0:i8 = mulnsw 10:i8, %x\n%1:i8 = srem %0, 10:i8\ninfer %1", "00000000"},
		{"%x:i8 = var (range=[0,5))\n%0:i8 = add 1:i8, %x\ninfer %0", "00000xxx"},
		{"%0:i8 = var\n%1:i8 = srem 4:i8, %0\ninfer %1", "00000x0x"},
	}
	for _, c := range cases {
		f := ir.MustParse(c.src)
		got := KnownBits(solver.NewSAT(f, 0), f)
		if got.Exhausted {
			t.Fatalf("%s: exhausted", c.src)
		}
		if got.Bits.String() != c.want {
			t.Errorf("%s: precise known bits = %s, want %s (paper)", c.src, got.Bits, c.want)
		}
	}
}

func TestPaperPrecisePowerOfTwo(t *testing.T) {
	cases := []string{
		"%x:i32 = var (range=[1,3))\ninfer %x",
		"%x:i16 = var (range=[1,0))\n%0:i16 = sub 0:i16, %x\n%1:i16 = and %x, %0\ninfer %1",
		"%x:i32 = var\n%0:i32 = and 7:i32, %x\n%1:i32 = shl 1:i32, %0\n%2:i8 = trunc %1\ninfer %2",
	}
	for _, src := range cases {
		f := ir.MustParse(src)
		got := PowerOfTwo(solver.NewSAT(f, 0), f)
		if got.Exhausted {
			t.Fatalf("%s: exhausted", src)
		}
		if !got.Proved {
			t.Errorf("%s: oracle should prove power of two (paper §4.3)", src)
		}
	}
}

func TestPaperPreciseDemandedBits(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i1 = slt %x, 0:i8\ninfer %0")
	got := DemandedBits(solver.NewSAT(f, 0), f)
	if s := got.Demanded["x"].BitString(); s != "10000000" {
		t.Errorf("icmp slt demanded = %s, want 10000000 (paper §4.4)", s)
	}

	f2 := ir.MustParse("%x:i16 = var\n%0:i16 = udiv %x, 1000:i16\ninfer %0")
	got2 := DemandedBits(solver.NewSAT(f2, 0), f2)
	if s := got2.Demanded["x"].BitString(); s != "1111111111111000" {
		t.Errorf("udiv 1000 demanded = %s, want 1111111111111000 (paper §4.4)", s)
	}
}

// bitQueryCounter wraps an engine and records, per input bit, how many
// solver queries its BitMatters calls issued.
type bitQueryCounter struct {
	solver.Engine
	perBit map[uint]int64
}

func (c *bitQueryCounter) BitMatters(v *ir.Inst, bit uint) (bool, bool) {
	before := c.Engine.Stats().Queries
	r, ok := c.Engine.BitMatters(v, bit)
	c.perBit[bit] += c.Engine.Stats().Queries - before
	return r, ok
}

// TestDemandedBitsOneQueryPerBit pins Algorithm 2's cost on the SAT path:
// "flipping bit i can change the output" is one symmetric query, so a bit
// that is not demanded costs one UNSAT proof, not one per forced value.
func TestDemandedBitsOneQueryPerBit(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i1 = slt %x, 0:i8\ninfer %0")
	c := &bitQueryCounter{Engine: solver.NewSAT(f, 0), perBit: map[uint]int64{}}
	got := DemandedBits(c, f)
	if got.Exhausted {
		t.Fatal("exhausted")
	}
	if s := got.Demanded["x"].BitString(); s != "10000000" {
		t.Fatalf("demanded = %s, want 10000000", s)
	}
	for bit := uint(0); bit < 7; bit++ {
		if n := c.perBit[bit]; n != 1 {
			t.Errorf("non-demanded bit %d cost %d solver queries, want 1", bit, n)
		}
	}
}

// TestDemandedBitsSweepSlowMiters pins two 16-bit expressions whose
// demanded-bits miters were the slowest SAT work of a campaign round: an
// i8 mul² (about 14k conflicts on the miter) and an fshr/srem expression
// (about 12k). The engine NewEngine builds for them must give the masks
// NewSAT's miter gives, and, answering demanded bits by the exhaustive
// sweep, spend no SAT conflict after Feasible.
func TestDemandedBitsSweepSlowMiters(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want map[string]string
	}{
		{"%v0:i8 = var\n%v1:i8 = var\n%0:i8 = mul %v1, %v0\n%1:i8 = mul %0, %0\ninfer %1",
			map[string]string{"v0": "01111111", "v1": "01111111"}},
		{`%v2:i8 = var
%v3:i8 = var
%0:i8 = and %v2, 127:i8
%1:i8 = fshr %v2, %0, %0
%2:i8 = add %1, %1
%3:i8 = srem %2, %v3
%4:i8 = addnsw 1:i8, %3
infer %4`, map[string]string{"v2": "01111111", "v3": "11111111"}},
	} {
		f := ir.MustParse(tc.src)
		sd := ComputeSeed(f)
		miter := DemandedBitsSeeded(solver.NewSAT(f, 0), f, sd)
		eng := solver.NewEngine(f, solver.Config{})
		if _, ok := eng.Feasible(); !ok {
			t.Fatalf("%s: Feasible exhausted", tc.src)
		}
		before := eng.Stats()
		got := DemandedBitsSeeded(eng, f, sd)
		after := eng.Stats()
		if miter.Exhausted || got.Exhausted {
			t.Fatalf("%s: exhausted (miter %v, engine %v)", tc.src, miter.Exhausted, got.Exhausted)
		}
		for name, want := range tc.want {
			if s := miter.Demanded[name].BitString(); s != want {
				t.Errorf("%s: miter demands %s of %%%s, want %s", tc.src, s, name, want)
			}
			if s := got.Demanded[name].BitString(); s != want {
				t.Errorf("%s: engine demands %s of %%%s, want %s", tc.src, s, name, want)
			}
		}
		if d := after.Conflicts - before.Conflicts; d != 0 {
			t.Errorf("%s: demanded bits spent %d conflicts after Feasible, want 0", tc.src, d)
		}
		if after.EnumQueries == before.EnumQueries {
			t.Errorf("%s: no demanded-bits query answered by the sweep", tc.src)
		}
	}
}

func TestPaperPreciseRanges(t *testing.T) {
	cases := []struct{ src, want string }{
		{"%x:i32 = var\n%0:i1 = eq 0:i32, %x\n%1:i32 = select %0, 1:i32, %x\ninfer %1", "[1,0)"},
		{"%x:i32 = var (range=[1,7))\n%0:i32 = and 4294967295:i32, %x\ninfer %0", "[1,7)"},
		{"%x:i32 = var\n%0:i32 = srem %x, 8:i32\ninfer %0", "[-7,8)"},
		{"%x:i16 = var\n%0:i16 = udiv 128:i16, %x\ninfer %0", "[0,129)"},
	}
	for _, c := range cases {
		f := ir.MustParse(c.src)
		got := IntegerRange(solver.NewSAT(f, 0), f)
		// At 32 bits, proving that no range below the hull exists can
		// legitimately exhaust the synthesis budget (the paper reports
		// 42.9% resource exhaustion for this analysis); the returned
		// range must still be the paper's maximally precise one.
		if got.Range.String() != c.want {
			t.Errorf("%s: precise range = %v, want %s (paper §4.5)", c.src, got.Range, c.want)
		}
	}
}

func TestPaperSoundnessBugSignBits(t *testing.T) {
	// §4.7 bug 2's trigger: srem %0, 3 at i32 has exactly 30 sign bits.
	f := ir.MustParse("%0:i32 = var\n%1:i32 = srem %0, 3:i32\ninfer %1")
	got := SignBits(solver.NewSAT(f, 0), f)
	if got.Exhausted {
		t.Fatal("exhausted")
	}
	if got.NumSignBits != 30 {
		t.Errorf("precise sign bits = %d, want 30 (paper §4.7)", got.NumSignBits)
	}
}

func TestDeadCodeFacts(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = udiv %x, 0:i8\ninfer %0")
	e := solver.NewSAT(f, 0)
	kb := KnownBits(e, f)
	if kb.Feasible {
		t.Error("dead code reported feasible")
	}
	d := DemandedBits(solver.NewSAT(f, 0), f)
	if !d.Demanded["x"].IsZero() {
		t.Errorf("dead code demanded = %s, want none", d.Demanded["x"].BitString())
	}
	sb := SignBits(solver.NewSAT(f, 0), f)
	if sb.NumSignBits != 8 {
		t.Errorf("dead code sign bits = %d, want width", sb.NumSignBits)
	}
}

func TestAnalyzeAll(t *testing.T) {
	f := ir.MustParse("%x:i8 = var (range=[1,3))\ninfer %x")
	all := AnalyzeAllWith(solver.NewSAT(f, 0), f, ComputeSeed(f))
	if !all.NonZero.Proved || !all.PowerOfTwo.Proved || !all.NonNegative.Proved || all.Negative.Proved {
		t.Error("AnalyzeAllWith single-bit facts wrong")
	}
	if all.Range.Range.String() != "[1,3)" {
		t.Errorf("AnalyzeAllWith range = %v", all.Range.Range)
	}
	if all.Known.Bits.String() != "000000xx" {
		t.Errorf("AnalyzeAllWith known = %v", all.Known.Bits)
	}
	if all.Sign.NumSignBits != 6 {
		t.Errorf("AnalyzeAllWith sign bits = %d", all.Sign.NumSignBits)
	}
	// Forcing any bit of a [1,3)-constrained variable pushes it outside
	// its range metadata, so under UB-aware quantification no bit is
	// demanded (there is no well-defined pair of executions that differ).
	if d := all.Demanded.Demanded["x"]; !d.IsZero() {
		t.Errorf("AnalyzeAllWith demanded = %s, want none", d.BitString())
	}
}

func TestAblationNaiveAlgorithm3(t *testing.T) {
	// On small, well-bounded results the naive Algorithm 3 and the
	// hull-seeded version agree exactly.
	for _, src := range []string{
		"%x:i8 = var\n%0:i8 = srem %x, 8:i8\ninfer %0",
		"%x:i8 = var\n%0:i8 = udiv 128:i8, %x\ninfer %0",
		"%x:i8 = var (range=[1,7))\n%0:i8 = and 255:i8, %x\ninfer %0",
	} {
		f := ir.MustParse(src)
		seeded := IntegerRange(solver.NewSAT(f, 0), f)
		naive := IntegerRangeNaive(solver.NewSAT(f, 0), f)
		if naive.Exhausted {
			t.Errorf("%s: naive exhausted unexpectedly", src)
			continue
		}
		if !seeded.Range.Eq(naive.Range) {
			t.Errorf("%s: seeded %v != naive %v", src, seeded.Range, naive.Range)
		}
	}

	// On a near-full result (all values but zero) the naive algorithm
	// exhausts — that is the design reason for hull seeding.
	f := ir.MustParse("%x:i16 = var\n%0:i1 = eq 0:i16, %x\n%1:i16 = select %0, 1:i16, %x\ninfer %1")
	seeded := IntegerRange(solver.NewSAT(f, 0), f)
	if seeded.Range.String() != "[1,0)" {
		t.Errorf("seeded range = %v, want [1,0)", seeded.Range)
	}
	naive := IntegerRangeNaive(solver.NewSAT(f, 0), f)
	if !naive.Exhausted {
		t.Logf("naive unexpectedly completed with %v (solver got lucky)", naive.Range)
	}
	// Naive must still be sound: its range contains all non-zero values.
	for _, v := range []uint64{1, 2, 0x8000, 0xFFFF} {
		if !naive.Range.Contains(apint.New(16, v)) {
			t.Errorf("naive range %v excludes achievable %d", naive.Range, v)
		}
	}
}

func TestExhaustionDegradesSoundly(t *testing.T) {
	// A hard 32-bit multiply with a tiny budget must come back sound
	// (unknown bits) and flagged Exhausted, not wrong.
	f := ir.MustParse("%x:i32 = var\n%y:i32 = var\n%0:i32 = mul %x, %y\n%1:i32 = mul %0, %0\ninfer %1")
	got := KnownBits(solver.NewSAT(f, 5), f)
	if !got.Exhausted {
		t.Error("expected exhaustion with budget 5")
	}
	// Whatever bits were resolved must be sound; spot check on inputs.
	if got.Bits.HasConflict() {
		t.Errorf("exhausted result has conflict: %v", got.Bits)
	}
}

// TestOracle64BitDivisionFree backs the EXPERIMENTS claim that division-
// free queries complete at the full 64-bit width the paper uses.
func TestOracle64BitDivisionFree(t *testing.T) {
	cases := []struct {
		src       string
		wantKnown string // empty = don't check exact bits
	}{
		{"%x:i64 = var\n%0:i64 = shl 32:i64, %x\ninfer %0", ""},
		{"%x:i64 = var\n%0:i64 = and 255:i64, %x\n%1:i64 = mul %0, 256:i64\ninfer %1", ""},
		{"%x:i64 = var (range=[1,0))\n%0:i64 = sub 0:i64, %x\n%1:i64 = and %x, %0\ninfer %1", ""},
	}
	for _, c := range cases {
		f := ir.MustParse(c.src)
		kb := KnownBits(solver.NewSAT(f, 0), f)
		if kb.Exhausted {
			t.Errorf("%s: 64-bit known bits exhausted", c.src)
		}
		sb := SignBits(solver.NewSAT(f, 0), f)
		if sb.Exhausted {
			t.Errorf("%s: 64-bit sign bits exhausted", c.src)
		}
	}
	// The x & -x power-of-two proof at i64, §4.3's own width.
	f := ir.MustParse("%x:i64 = var (range=[1,0))\n%0:i64 = sub 0:i64, %x\n%1:i64 = and %x, %0\ninfer %1")
	p2 := PowerOfTwo(solver.NewSAT(f, 0), f)
	if p2.Exhausted || !p2.Proved {
		t.Errorf("x & -x at i64: proved=%v exhausted=%v, want proved", p2.Proved, p2.Exhausted)
	}
	// shl 32, %x at i64: 5 trailing zeros known, as at i8.
	f2 := ir.MustParse("%x:i64 = var\n%0:i64 = shl 32:i64, %x\ninfer %0")
	kb := KnownBits(solver.NewSAT(f2, 0), f2)
	if kb.Exhausted {
		t.Fatal("exhausted")
	}
	for i := uint(0); i < 5; i++ {
		if known, one := kb.Bits.KnownBit(i); !known || one {
			t.Errorf("bit %d of shl 32, %%x at i64 should be known zero", i)
		}
	}
}

// coverWindowQuadratic is the all-pairs definition of a cover query: the
// first sample, in samples order, from which a window of size c covers
// every sample.
func coverWindowQuadratic(c apint.Int, samples []apint.Int) (apint.Int, bool) {
	for _, base := range samples {
		covered := true
		for _, s := range samples {
			// s ∈ [base, base+c) ⟺ s - base <u c.
			if !s.Sub(base).ULT(c) {
				covered = false
				break
			}
		}
		if covered {
			return base, true
		}
	}
	return apint.Int{}, false
}

// TestCoverWindowMatchesQuadratic grows one sample set a sample at a time,
// as synthesizeBase does, and after every insert checks cover queries
// against the all-pairs definition over the samples in insertion order.
// The samples include exact duplicates and clusters straddling the 0/2^w
// wrap point; window sizes run over all of 0..2^w-1 up to width 4 and
// over both ends and random sizes above it, at widths up to 64.
func TestCoverWindowMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3000; trial++ {
		w := []uint{1, 2, 3, 4, 5, 8, 13, 16, 32, 63, 64}[rng.Intn(11)]
		maxv := apint.AllOnes(w).Uint64()
		randVal := func() uint64 {
			switch rng.Intn(3) {
			case 0: // near the wrap point, from either side
				d := uint64(rng.Intn(4))
				if rng.Intn(2) == 0 {
					return d & maxv
				}
				return maxv - d&maxv
			case 1: // anywhere
				return rng.Uint64() & maxv
			default: // a small cluster, so duplicates are common
				return uint64(rng.Intn(6)) & maxv
			}
		}
		var sizes []uint64
		if w <= 4 {
			for c := uint64(0); c <= maxv; c++ {
				sizes = append(sizes, c)
			}
		} else {
			sizes = []uint64{0, 1, 2, maxv - 1, maxv, rng.Uint64() & maxv, rng.Uint64() & maxv}
		}
		ss := newSampleSet(w)
		var samples []apint.Int
		for n := 1 + rng.Intn(24); len(samples) < n; {
			v := apint.New(w, randVal())
			if len(samples) > 0 && rng.Intn(4) == 0 {
				v = samples[rng.Intn(len(samples))] // exact duplicate
			}
			samples = append(samples, v)
			ss.add(v)
			for i := 1; i < len(ss.s); i++ {
				if ss.s[i-1].v >= ss.s[i].v {
					t.Fatalf("w=%d samples=%v: set not strictly ascending: %v", w, samples, ss.s)
				}
			}
			for _, c := range sizes {
				cw := apint.New(w, c)
				gotBase, gotOK := ss.cover(cw)
				wantBase, wantOK := coverWindowQuadratic(cw, samples)
				if gotOK != wantOK || (gotOK && !gotBase.Eq(wantBase)) {
					t.Fatalf("w=%d c=%d samples=%v: cover = (%v, %v), quadratic = (%v, %v)",
						w, c, samples, gotBase, gotOK, wantBase, wantOK)
				}
			}
		}
	}
}
