package solver

import (
	"testing"

	"dfcheck/internal/ir"
)

// TestNewEngineRouting checks the cutoff logic: small summed input widths
// go to enumeration, everything else (and a disabled cutoff) to SAT.
func TestNewEngineRouting(t *testing.T) {
	small := ir.MustParse("%x:i4 = var\n%y:i4 = var\n%0:i4 = add %x, %y\ninfer %0")    // 8 bits
	large := ir.MustParse("%x:i16 = var\n%y:i16 = var\n%0:i16 = add %x, %y\ninfer %0") // 32 bits

	if _, ok := NewEngine(small, Config{}).(*EnumEngine); !ok {
		t.Errorf("8 input bits at default cutoff %d: want EnumEngine", DefaultEnumCutoff)
	}
	if _, ok := NewEngine(large, Config{}).(*SATEngine); !ok {
		t.Error("32 input bits: want SATEngine")
	}

	// The sliced-evaluation default is 14: a 12-bit space enumerates, a
	// 16-bit one still bit-blasts.
	if DefaultEnumCutoff != 14 {
		t.Errorf("DefaultEnumCutoff = %d, want 14", DefaultEnumCutoff)
	}
	twelve := ir.MustParse("%x:i8 = var\n%y:i4 = var\n%0:i4 = trunc %x\n%1:i4 = add %0, %y\ninfer %1")
	if _, ok := NewEngine(twelve, Config{}).(*EnumEngine); !ok {
		t.Error("12 input bits at the default cutoff: want EnumEngine")
	}
	sixteen := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = add %x, %y\ninfer %0")
	if _, ok := NewEngine(sixteen, Config{}).(*SATEngine); !ok {
		t.Error("16 input bits at the default cutoff: want SATEngine")
	}
	if _, ok := NewEngine(small, Config{EnumCutoff: -1}).(*SATEngine); !ok {
		t.Error("negative cutoff must disable the enumeration path")
	}
	if _, ok := NewEngine(small, Config{EnumCutoff: 7}).(*SATEngine); !ok {
		t.Error("8 input bits above explicit cutoff 7: want SATEngine")
	}
	mid := ir.MustParse("%x:i12 = var\n%y:i12 = var\n%0:i12 = add %x, %y\ninfer %0") // 24 bits
	if _, ok := NewEngine(mid, Config{EnumCutoff: 24}).(*EnumEngine); !ok {
		t.Error("24 input bits at explicit cutoff 24: want EnumEngine")
	}
	if _, ok := NewEngine(large, Config{EnumCutoff: 32}).(*SATEngine); !ok {
		t.Error("32 input bits: want SATEngine (cutoff clamps to MaxEnumBits)")
	}

	// An absurd cutoff is clamped to what enumeration can actually do.
	huge := ir.MustParse("%x:i32 = var\n%y:i32 = var\n%0:i32 = add %x, %y\ninfer %0")
	if _, ok := NewEngine(huge, Config{EnumCutoff: 1 << 20}).(*SATEngine); !ok {
		t.Error("64 input bits: want SATEngine no matter the cutoff")
	}

	// Config plumbing must reach the SAT engine.
	e := NewEngine(large, Config{NoStrash: true}).(*SATEngine)
	if !e.NoStrash {
		t.Error("NoStrash not plumbed through NewEngine")
	}

	// Demanded bits: a SAT engine from NewEngine takes the exhaustive
	// sweep up to DemandedSweepBits input bits unless enumeration is off;
	// NewSAT never does.
	seventeen := ir.MustParse("%x:i8 = var\n%y:i9 = var\n%0:i8 = trunc %y\n%1:i8 = add %x, %0\ninfer %1")
	for _, tc := range []struct {
		name  string
		f     *ir.Function
		cfg   Config
		sweep bool
	}{
		{"16 input bits", sixteen, Config{}, true},
		{"8 input bits above explicit cutoff 7", small, Config{EnumCutoff: 7}, true},
		{"16 input bits, enumeration off", sixteen, Config{EnumCutoff: -1}, false},
		{"17 input bits", seventeen, Config{}, false},
		{"32 input bits", large, Config{}, false},
	} {
		e := NewEngine(tc.f, tc.cfg).(*SATEngine)
		if got := e.demanded != nil; got != tc.sweep {
			t.Errorf("%s: demanded-bits sweep %v, want %v", tc.name, got, tc.sweep)
		}
		// Above the sweep, NewEngine samples witness pairs unless
		// enumeration is off.
		if got, want := e.sample != nil, !tc.sweep && tc.cfg.EnumCutoff >= 0; got != want {
			t.Errorf("%s: demanded-bits sampler %v, want %v", tc.name, got, want)
		}
	}
	if e := NewEngine(large, Config{EnumCutoff: -1}).(*SATEngine); e.sample != nil {
		t.Error("32 input bits, enumeration off: want no demanded-bits sampler")
	}
	for _, f := range []*ir.Function{sixteen, large} {
		if e := NewSAT(f, 0); e.demanded != nil || e.sample != nil {
			t.Error("NewSAT must keep every demanded-bits query on the miter")
		}
	}
}

// TestSharedBudgetBoundsTotalConflicts checks the per-engine budget really
// is shared across queries: total conflicts spent stays within the budget
// plus at most one query's overshoot (the in-flight restart batch).
func TestSharedBudgetBoundsTotalConflicts(t *testing.T) {
	f := ir.MustParse(`
		%x:i24 = var
		%y:i24 = var
		%0:i24 = mul %x, %y
		%1:i24 = mul %y, %x
		%2:i24 = xor %0, %1
		%3:i24 = mul %2, %2
		infer %3
	`)
	const budget = 500
	e := NewSAT(f, budget)
	for i := uint(0); i < 24; i++ {
		e.OutputBitCanBe(i, true)
		e.OutputBitCanBe(i, false)
	}
	st := e.Stats()
	if st.Exhausted == 0 {
		t.Fatal("expected exhaustion under a 500-conflict budget")
	}
	// One Luby batch may overshoot the per-query ceiling; anything beyond
	// 2x means queries are not drawing from a shared pool.
	if st.Conflicts > 2*budget {
		t.Errorf("spent %d conflicts against a shared budget of %d", st.Conflicts, budget)
	}
}
