package solver

import (
	"testing"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
)

var crossCheckCorpus = []string{
	"%x:i4 = var\n%0:i4 = shl 8:i4, %x\ninfer %0",
	"%x:i4 = var\n%0:i4 = and 1:i4, %x\n%1:i4 = add %x, %0\ninfer %1",
	"%x:i4 = var\n%0:i4 = srem %x, 3:i4\ninfer %0",
	"%x:i4 = var\n%0:i4 = udiv 8:i4, %x\ninfer %0",
	"%x:i4 = var (range=[1,3))\ninfer %x",
	"%x:i4 = var\n%0:i4 = sub 0:i4, %x\n%1:i4 = and %x, %0\ninfer %1",
	"%x:i4 = var\n%y:i4 = var\n%0:i1 = ult %x, %y\n%1:i4 = select %0, %x, %y\ninfer %1",
	"%x:i4 = var\n%0:i4 = mulnsw 3:i4, %x\ninfer %0",
	"%x:i4 = var\n%0:i2 = trunc %x\n%1:i4 = zext %0\ninfer %1",
	"%x:i4 = var\n%0:i4 = udiv %x, 0:i4\ninfer %0", // never well-defined
	"%x:i6 = var\n%0:i6 = srem 4:i6, %x\ninfer %0",
	"%x:i5 = var\n%0:i5 = ctpop %x\ninfer %0",
	// Roots wider than 16 bits take the output sweep's map dedup, and
	// the 64-bit ones the full-word mask of OutputOutside.
	"%x:i8 = var\n%y:i4 = var\n%0:i16 = zext %x\n%1:i16 = zext %y\n%2:i16 = shl %0, %1\ninfer %2",
	"%x:i8 = var\n%y:i4 = var\n%0:i17 = sext %x\n%1:i17 = zext %y\n%2:i17 = udiv %0, %1\ninfer %2",
	"%x:i8 = var\n%0:i32 = zext %x\n%1:i32 = mul %0, 257:i32\ninfer %1",
	"%x:i8 = var\n%0:i64 = sext %x\ninfer %0",
	"%x:i6 = var\n%y:i6 = var\n%0:i64 = zext %x\n%1:i64 = zext %y\n%2:i64 = sub %0, %1\ninfer %2",
}

func fixCorpus(src string) string {
	// A typo guard: the corpus strings are parsed; invalid ones panic in
	// MustParse during the test, which is what we want to catch.
	return src
}

func engines(t *testing.T, src string) (*SATEngine, *EnumEngine, *ir.Function) {
	t.Helper()
	f := ir.MustParse(src)
	return NewSAT(f, 0), NewEnum(f), f
}

func TestEnginesAgreeOnCorpus(t *testing.T) {
	for _, src := range crossCheckCorpus {
		src := fixCorpus(src)
		se, ee, f := engines(t, src)
		w := f.Width()

		sf, ok1 := se.Feasible()
		ef, ok2 := ee.Feasible()
		if !ok1 || !ok2 {
			t.Fatalf("%s: Feasible exhausted", src)
		}
		if sf != ef {
			t.Fatalf("%s: Feasible disagree sat=%v enum=%v", src, sf, ef)
		}

		for i := uint(0); i < w; i++ {
			for _, val := range []bool{false, true} {
				sr, _ := se.OutputBitCanBe(i, val)
				er, _ := ee.OutputBitCanBe(i, val)
				if sr != er {
					t.Fatalf("%s: OutputBitCanBe(%d,%v) disagree sat=%v enum=%v", src, i, val, sr, er)
				}
			}
		}

		for k := uint(1); k <= w; k++ {
			sr, _ := se.SignBitsViolated(k)
			er, _ := ee.SignBitsViolated(k)
			if sr != er {
				t.Fatalf("%s: SignBitsViolated(%d) disagree sat=%v enum=%v", src, k, sr, er)
			}
		}

		sr, _ := se.CanBeZero()
		er, _ := ee.CanBeZero()
		if sr != er {
			t.Fatalf("%s: CanBeZero disagree sat=%v enum=%v", src, sr, er)
		}

		sr, _ = se.CanBeNonPowerOfTwo()
		er, _ = ee.CanBeNonPowerOfTwo()
		if sr != er {
			t.Fatalf("%s: CanBeNonPowerOfTwo disagree sat=%v enum=%v", src, sr, er)
		}

		// Ranges: a handful of (lo, size) probes, the last two wrapping
		// past 2^w at every width.
		for _, probe := range []struct{ lo, size uint64 }{
			{0, 1}, {0, 5}, {3, 4}, {13, 6}, {1, 15}, {8, 0}, {15, 1},
			{^uint64(0) - 2, 6}, {^uint64(0) - 62, 127},
		} {
			lo := apint.New(w, probe.lo)
			size := apint.New(w, probe.size)
			_, srOut, _ := se.OutputOutside(lo, size)
			_, erOut, _ := ee.OutputOutside(lo, size)
			if srOut != erOut {
				t.Fatalf("%s: OutputOutside(%v,%v) disagree sat=%v enum=%v", src, lo, size, srOut, erOut)
			}
		}

		// Demanded-bit queries on every input bit.
		for _, v := range f.Vars {
			for i := uint(0); i < v.Width; i++ {
				sr, _ := se.BitMatters(v, i)
				er, _ := ee.BitMatters(v, i)
				if sr != er {
					t.Fatalf("%s: BitMatters(%%%s,%d) disagree sat=%v enum=%v",
						src, v.Name, i, sr, er)
				}
			}
		}
	}
}

func TestOutputOutsideExampleIsReal(t *testing.T) {
	// When SAT finds an outside example, it must actually be an
	// achievable output outside the interval.
	f := ir.MustParse("%x:i4 = var\n%0:i4 = and 7:i4, %x\ninfer %0")
	se := NewSAT(f, 0)
	lo, size := apint.New(4, 0), apint.New(4, 4) // [0,4): outputs 4..7 outside
	ex, found, ok := se.OutputOutside(lo, size)
	if !ok || !found {
		t.Fatalf("expected an outside example, found=%v ok=%v", found, ok)
	}
	if ex.ULT(apint.New(4, 4)) || ex.UGT(apint.New(4, 7)) {
		t.Errorf("example %v is not an achievable outside output", ex)
	}
}

func TestInfeasibleFunction(t *testing.T) {
	// Division by literal zero is UB on every input.
	f := ir.MustParse("%x:i4 = var\n%0:i4 = udiv %x, 0:i4\ninfer %0")
	se := NewSAT(f, 0)
	feasible, ok := se.Feasible()
	if !ok || feasible {
		t.Errorf("Feasible = (%v,%v), want (false,true)", feasible, ok)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// 24-bit multiply equivalence is hard enough to blow a 10-conflict
	// budget.
	f := ir.MustParse(`
		%x:i24 = var
		%y:i24 = var
		%0:i24 = mul %x, %y
		%1:i24 = mul %y, %x
		%2:i24 = xor %0, %1
		%3:i24 = mul %2, %2
		%4:i24 = add %3, %0
		infer %4
	`)
	se := NewSAT(f, 10)
	done := 0
	for i := uint(0); i < 24; i++ {
		if _, ok := se.OutputBitCanBe(i, true); ok {
			done++
		}
	}
	st := se.Stats()
	if st.Exhausted == 0 {
		t.Errorf("no queries exhausted with budget 10 (done=%d)", done)
	}
	if st.Queries != 24 {
		t.Errorf("queries = %d, want 24", st.Queries)
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = mul %x, %x\ninfer %0")
	se := NewSAT(f, 0)
	se.CanBeZero()
	se.CanBeNonPowerOfTwo()
	st := se.Stats()
	// The CanBeZero model has output 0, which is also a non-power-of-two
	// witness: the second query is answered from the witness cache.
	if st.Queries != 1 || st.Pruned != 1 {
		t.Errorf("queries = %d, pruned = %d, want 1 and 1", st.Queries, st.Pruned)
	}
	if st.Propagations == 0 {
		t.Error("propagations not recorded")
	}
}

func TestEnumEngineRejectsWideFunctions(t *testing.T) {
	f := ir.MustParse("%x:i32 = var\ninfer %x")
	defer func() {
		if recover() == nil {
			t.Error("NewEnum on 32-bit input did not panic")
		}
	}()
	NewEnum(f)
}

// TestIncrementalMatchesFresh cross-checks the incremental (shared-solver,
// assumption-based) engine against the fresh-solver reference
// (fresh_test.go) on every query type.
func TestIncrementalMatchesFresh(t *testing.T) {
	for _, src := range crossCheckCorpus {
		f := ir.MustParse(src)
		inc := NewSAT(f, 0)
		fresh := newFreshSAT(f, 0)
		w := f.Width()

		check := func(what string, a, b bool, ok1, ok2 bool) {
			t.Helper()
			if !ok1 || !ok2 {
				t.Fatalf("%s: %s exhausted (inc ok=%v fresh ok=%v)", src, what, ok1, ok2)
			}
			if a != b {
				t.Fatalf("%s: %s disagree inc=%v fresh=%v", src, what, a, b)
			}
		}

		a, ok1 := inc.Feasible()
		b, ok2 := fresh.Feasible()
		check("Feasible", a, b, ok1, ok2)

		for i := uint(0); i < w; i++ {
			for _, val := range []bool{false, true} {
				a, ok1 = inc.OutputBitCanBe(i, val)
				b, ok2 = fresh.OutputBitCanBe(i, val)
				check("OutputBitCanBe", a, b, ok1, ok2)
			}
		}
		for k := uint(2); k <= w; k++ {
			a, ok1 = inc.SignBitsViolated(k)
			b, ok2 = fresh.SignBitsViolated(k)
			check("SignBitsViolated", a, b, ok1, ok2)
		}
		a, ok1 = inc.CanBeZero()
		b, ok2 = fresh.CanBeZero()
		check("CanBeZero", a, b, ok1, ok2)
		a, ok1 = inc.CanBeNonPowerOfTwo()
		b, ok2 = fresh.CanBeNonPowerOfTwo()
		check("CanBeNonPowerOfTwo", a, b, ok1, ok2)

		for _, probe := range []struct{ lo, size uint64 }{{0, 1}, {3, 4}, {13, 6}, {8, 0}, {1, 15}} {
			_, ra, ok1 := inc.OutputOutside(apint.New(w, probe.lo), apint.New(w, probe.size))
			_, rb, ok2 := fresh.OutputOutside(apint.New(w, probe.lo), apint.New(w, probe.size))
			check("OutputOutside", ra, rb, ok1, ok2)
		}

		for _, v := range f.Vars {
			for i := uint(0); i < v.Width; i++ {
				a, ok1 = inc.BitMatters(v, i)
				b, ok2 = fresh.BitMatters(v, i)
				check("BitMatters", a, b, ok1, ok2)
			}
		}
	}
}

func TestDeadlineExhaustsQueries(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = add %x, 1:i8\ninfer %0")
	e := NewSAT(f, 0)
	e.Deadline = time.Now().Add(-time.Second)
	if _, ok := e.Feasible(); ok {
		t.Error("query past deadline should be unknown")
	}
	if _, ok := e.OutputBitCanBe(0, true); ok {
		t.Error("bit query past deadline should be unknown")
	}
	if _, ok := e.BitMatters(f.Vars[0], 0); ok {
		t.Error("miter query past deadline should be unknown")
	}
	if st := e.Stats(); st.Exhausted != 3 || st.Queries != 3 {
		t.Errorf("stats = %+v, want 3 exhausted of 3", st)
	}
	// Future deadline: queries run normally.
	e2 := NewSAT(f, 0)
	e2.Deadline = time.Now().Add(time.Hour)
	if feasible, ok := e2.Feasible(); !ok || !feasible {
		t.Error("query before deadline should succeed")
	}
}
