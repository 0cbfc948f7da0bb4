package eval_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// checkExhaustive sweeps f's entire input space through EvalIndexed and
// demands per-lane agreement with the scalar Eval on both the ok bit and
// (on ok lanes) the value.
func checkExhaustive(t *testing.T, name string, f *ir.Function) {
	t.Helper()
	total := eval.TotalInputBits(f)
	if total > 16 {
		t.Fatalf("%s: %d input bits is too large for an exhaustive check", name, total)
	}
	sp := eval.CompileSliced(f)
	count := uint64(1) << total
	lanes := uint64(64)
	if count < 64 {
		lanes = count
	}
	env := make(eval.Env, len(f.Vars))
	var vals [64]uint64
	for base := uint64(0); base < count; base += 64 {
		planes, ok := sp.EvalIndexed(base)
		eval.Lanes(planes, &vals)
		for l := uint64(0); l < lanes; l++ {
			idx := base + l
			bits := idx
			for _, v := range f.Vars {
				env[v] = apint.New(v.Width, bits)
				bits >>= v.Width
			}
			want, wantOK := eval.Eval(f, env)
			gotOK := ok>>l&1 == 1
			if gotOK != wantOK {
				t.Fatalf("%s: input %#x: sliced ok=%v, scalar ok=%v", name, idx, gotOK, wantOK)
			}
			if gotOK && vals[l] != want.Uint64() {
				t.Fatalf("%s: input %#x: sliced %#x, scalar %#x", name, idx, vals[l], want.Uint64())
			}
		}
	}
}

// TestLanes checks the block transpose against gathering each lane's
// bits one plane at a time, for every plane count up to 64, and that
// transposing the 64 lane values back gives the planes again.
func TestLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for w := 0; w <= 64; w++ {
		for trial := 0; trial < 4; trial++ {
			planes := make([]uint64, w)
			for i := range planes {
				planes[i] = rng.Uint64()
			}
			var lanes [64]uint64
			for i := range lanes {
				lanes[i] = rng.Uint64() // Lanes must overwrite every entry
			}
			eval.Lanes(planes, &lanes)
			for l := 0; l < 64; l++ {
				var want uint64
				for i, pl := range planes {
					want |= (pl >> l & 1) << i
				}
				if lanes[l] != want {
					t.Fatalf("%d planes: lane %d = %#x, want %#x", w, l, lanes[l], want)
				}
			}
			var back [64]uint64
			eval.Lanes(lanes[:], &back)
			if !slices.Equal(back[:w], planes) || slices.ContainsFunc(back[w:], func(x uint64) bool { return x != 0 }) {
				t.Fatalf("%d planes: transposing the lanes back gave %#x, want %#x", w, back, planes)
			}
		}
	}
}

// singleOpFuncs builds every (op, width, flags) single-instruction
// function worth sweeping, covering the full instruction set — including
// OpSSubO/OpUMulO, which the harvest generator's op mix omits.
func singleOpFuncs() map[string]*ir.Function {
	out := make(map[string]*ir.Function)
	add := func(name string, root func(b *ir.Builder) *ir.Inst) {
		b := ir.NewBuilder()
		out[name] = b.Function(root(b))
	}
	flagSets := func(valid ir.Flags) []ir.Flags {
		sets := []ir.Flags{0}
		for _, fl := range []ir.Flags{ir.FlagNSW, ir.FlagNUW, ir.FlagExact} {
			if valid&fl != 0 {
				sets = append(sets, fl)
			}
		}
		if valid&(ir.FlagNSW|ir.FlagNUW) == ir.FlagNSW|ir.FlagNUW {
			sets = append(sets, ir.FlagNSW|ir.FlagNUW)
		}
		return sets
	}
	for _, op := range ir.AllOps() {
		op := op
		switch {
		case op.IsCast():
			from, to := uint(3), uint(8)
			if op == ir.OpTrunc {
				from, to = 8, 3
			}
			add(fmt.Sprintf("%v_i%d_i%d", op, from, to), func(b *ir.Builder) *ir.Inst {
				return b.BuildCast(op, to, b.Var("x", from))
			})
			add(fmt.Sprintf("%v_i1", op), func(b *ir.Builder) *ir.Inst {
				if op == ir.OpTrunc {
					return b.BuildCast(op, 1, b.Var("x", 4))
				}
				return b.BuildCast(op, 4, b.Var("x", 1))
			})
		case op.Arity() == 1:
			widths := []uint{1, 4, 8}
			if op == ir.OpBSwap {
				widths = []uint{8, 16}
			}
			for _, w := range widths {
				w := w
				add(fmt.Sprintf("%v_i%d", op, w), func(b *ir.Builder) *ir.Inst {
					return b.Build(op, 0, b.Var("x", w))
				})
			}
		case op == ir.OpSelect:
			for _, w := range []uint{1, 4, 7} {
				w := w
				add(fmt.Sprintf("%v_i%d", op, w), func(b *ir.Builder) *ir.Inst {
					return b.Build(op, 0, b.Var("c", 1), b.Var("x", w), b.Var("y", w))
				})
			}
		case op == ir.OpFshl || op == ir.OpFshr:
			for _, w := range []uint{1, 3, 4, 5} {
				w := w
				add(fmt.Sprintf("%v_i%d", op, w), func(b *ir.Builder) *ir.Inst {
					return b.Build(op, 0, b.Var("x", w), b.Var("y", w), b.Var("s", w))
				})
			}
		default: // arity-2 ops, including comparisons and overflow predicates
			for _, w := range []uint{1, 3, 4, 8} {
				for _, fl := range flagSets(op.ValidFlags()) {
					w, fl := w, fl
					add(fmt.Sprintf("%v%v_i%d", op, fl, w), func(b *ir.Builder) *ir.Inst {
						return b.Build(op, fl, b.Var("x", w), b.Var("y", w))
					})
				}
			}
		}
	}
	return out
}

// TestSlicedAllOpsExhaustive sweeps every opcode at several widths and
// every legal flag combination over the full input space.
func TestSlicedAllOpsExhaustive(t *testing.T) {
	for name, f := range singleOpFuncs() {
		checkExhaustive(t, name, f)
	}
}

// TestSlicedRangeMetadata checks that range-constrained variables (both
// ordinary and wrapped ranges, and the lo==hi full set) disqualify
// exactly the lanes the scalar interpreter rejects.
func TestSlicedRangeMetadata(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi uint64
	}{
		{"plain", 3, 11},
		{"wrapped", 200, 9},
		{"full", 5, 5},
		{"singleton", 7, 8},
	}
	for _, c := range cases {
		b := ir.NewBuilder()
		x := b.VarRange("x", 8, apint.New(8, c.lo), apint.New(8, c.hi))
		y := b.Var("y", 4)
		f := b.Function(b.Add(x, b.ZExt(y, 8)))
		checkExhaustive(t, "range_"+c.name, f)
	}
}

// TestSlicedMatchesScalarRandomFunctions drives random harvested
// functions (which include ranged variables and poison flags) through
// EvalPlanes on random 64-lane blocks, demanding lane-for-lane agreement
// with scalar Eval on the (value, ok) pair.
func TestSlicedMatchesScalarRandomFunctions(t *testing.T) {
	exprs := harvest.Generate(harvest.Config{
		Seed:     1234,
		NumExprs: 120,
		MaxInsts: 7,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 3}, {Width: 13, Weight: 1}, {Width: 32, Weight: 1}},
	})
	rng := rand.New(rand.NewSource(99))
	for _, e := range exprs {
		sp := eval.CompileSliced(e.F)
		for round := 0; round < 4; round++ {
			checkPlanes(t, e.Name, e.F, sp, rng.Uint64)
		}
	}
}

// checkPlanes draws one 64-lane block of inputs, word by word from next,
// evaluates it through EvalPlanes and demands that every lane's ok bit
// and value equal scalar Eval on that lane's inputs.
func checkPlanes(t *testing.T, name string, f *ir.Function, sp *eval.SlicedProgram, next func() uint64) {
	t.Helper()
	in := make([][]uint64, len(f.Vars))
	lanes := make([][64]uint64, len(f.Vars))
	for k, v := range f.Vars {
		in[k] = make([]uint64, v.Width)
		for j := range in[k] {
			in[k][j] = next()
		}
		eval.Lanes(in[k], &lanes[k])
	}
	planes, ok := sp.EvalPlanes(in)
	var got [64]uint64
	eval.Lanes(planes, &got)
	env := make(eval.Env, len(f.Vars))
	for l := 0; l < 64; l++ {
		for k, v := range f.Vars {
			env[v] = apint.New(v.Width, lanes[k][l])
		}
		want, wantOK := eval.Eval(f, env)
		if gotOK := ok>>l&1 == 1; gotOK != wantOK {
			t.Fatalf("%s: lane %d (%v): sliced ok=%v, scalar ok=%v\n%s", name, l, env, gotOK, wantOK, f)
		}
		if wantOK && got[l] != want.Uint64() {
			t.Fatalf("%s: lane %d (%v): sliced %#x, scalar %#x\n%s", name, l, env, got[l], want.Uint64(), f)
		}
	}
}

// TestSlicedEvalIndexedRandomFunctions runs full-space EvalIndexed sweeps
// on harvested functions small enough to enumerate.
func TestSlicedEvalIndexedRandomFunctions(t *testing.T) {
	exprs := harvest.Generate(harvest.Config{
		Seed:     555,
		NumExprs: 150,
		MaxInsts: 6,
		Widths:   []harvest.WidthWeight{{Width: 3, Weight: 1}, {Width: 4, Weight: 2}, {Width: 5, Weight: 1}},
	})
	checked := 0
	for _, e := range exprs {
		if eval.TotalInputBits(e.F) > 14 {
			continue
		}
		checkExhaustive(t, e.Name, e.F)
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d functions were small enough to sweep; corpus too thin", checked)
	}
}

// TestEvalBlockAlignmentPanics pins the EvalIndexed preconditions.
func TestEvalBlockAlignmentPanics(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%0:i8 = add %x, %x\ninfer %0")
	sp := eval.CompileSliced(f)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("unaligned base", func() { sp.EvalIndexed(3) })
	small := ir.MustParse("%x:i3 = var\n%0:i3 = add %x, %x\ninfer %0")
	ssp := eval.CompileSliced(small)
	mustPanic("nonzero base on small space", func() { ssp.EvalIndexed(64) })
	if got := ssp.NumLanes(); got != 8 {
		t.Errorf("NumLanes on a 3-bit space: got %d, want 8", got)
	}
}

// TestOutputsMatchScalar checks the output sweep against scalar
// enumeration in both orders: first-seen order must be the order in which
// ForEachInput first meets each well-defined value, ascending order the
// same set sorted, and either must count every lane of every block. The
// corpus covers roots at the bitset's 16 bits and map-deduped roots above
// it, up to 64 bits.
func TestOutputsMatchScalar(t *testing.T) {
	fs := map[string]*ir.Function{
		"i16":     ir.MustParse("%x:i8 = var\n%y:i4 = var\n%0:i16 = zext %x\n%1:i16 = zext %y\n%2:i16 = shl %0, %1\ninfer %2"),
		"i17":     ir.MustParse("%x:i8 = var\n%y:i4 = var\n%0:i17 = sext %x\n%1:i17 = zext %y\n%2:i17 = udiv %0, %1\ninfer %2"),
		"i32":     ir.MustParse("%x:i8 = var\n%0:i32 = zext %x\n%1:i32 = mul %0, 257:i32\ninfer %1"),
		"i64":     ir.MustParse("%x:i6 = var\n%y:i6 = var\n%0:i64 = zext %x\n%1:i64 = zext %y\n%2:i64 = sub %0, %1\ninfer %2"),
		"dead":    ir.MustParse("%x:i4 = var\n%0:i4 = udiv %x, 0:i4\ninfer %0"),
		"no-vars": ir.MustParse("%0:i6 = add 7:i6, 9:i6\ninfer %0"),
	}
	for _, e := range harvest.Generate(harvest.Config{
		Seed:     77,
		NumExprs: 60,
		MaxInsts: 6,
		Widths:   []harvest.WidthWeight{{Width: 3, Weight: 1}, {Width: 4, Weight: 2}, {Width: 8, Weight: 2}},
	}) {
		if eval.TotalInputBits(e.F) <= 12 {
			fs[e.Name] = e.F
		}
	}
	if len(fs) < 30 {
		t.Fatalf("only %d functions to sweep; corpus too thin", len(fs))
	}
	for name, f := range fs {
		checkOutputs(t, name, f)
	}
}

// checkOutputs demands that Outputs in both orders equal scalar
// enumeration of f's input space through ForEachInput and Eval.
func checkOutputs(t *testing.T, name string, f *ir.Function) {
	t.Helper()
	var firstSeen []uint64
	seen := make(map[uint64]bool)
	eval.ForEachInput(f, func(env eval.Env) bool {
		if v, ok := eval.Eval(f, env); ok && !seen[v.Uint64()] {
			seen[v.Uint64()] = true
			firstSeen = append(firstSeen, v.Uint64())
		}
		return true
	})
	sorted := slices.Clone(firstSeen)
	slices.Sort(sorted)
	lanes := max(64, int64(1)<<eval.TotalInputBits(f))
	sp := eval.CompileSliced(f)
	if got, evals, ok := sp.Outputs(false, nil); !ok || evals != lanes || !slices.Equal(got, firstSeen) {
		t.Errorf("%s: first-seen Outputs = %v after %d lanes (ok %v), want %v after %d", name, got, evals, ok, firstSeen, lanes)
	}
	if got, evals, ok := sp.Outputs(true, nil); !ok || evals != lanes || !slices.Equal(got, sorted) {
		t.Errorf("%s: ascending Outputs = %v after %d lanes (ok %v), want %v after %d", name, got, evals, ok, sorted, lanes)
	}
}

// exactSrcs is the exact-variant corpus of the n-way tests: live
// expressions of at most 12 input bits, with roots from 3 to 64 bits.
var exactSrcs = []string{
	"%x:i4 = var\n%0:i4 = and %x, 3:i4\ninfer %0",
	"%x:i4 = var\n%y:i4 = var\n%0:i4 = add %x, %y\ninfer %0",
	"%x:i8 = var (range=[3,10))\n%0:i8 = mul %x, 2:i8\ninfer %0",
	"%x:i5 = var\n%0:i5 = udiv %x, %x\ninfer %0",
	"%0:i6 = add 7:i6, 9:i6\ninfer %0",
	"%x:i3 = var\n%c:i1 = eq %x, 2:i3\n%0:i3 = select %c, %x, 5:i3\ninfer %0",
	"%x:i8 = var\n%y:i4 = var\n%0:i16 = zext %x\n%1:i16 = zext %y\n%2:i16 = shl %0, %1\ninfer %2",
	"%x:i8 = var\n%y:i4 = var\n%0:i17 = sext %x\n%1:i17 = zext %y\n%2:i17 = udiv %0, %1\ninfer %2",
	"%x:i8 = var\n%0:i32 = zext %x\n%1:i32 = mul %0, 257:i32\ninfer %1",
	"%x:i8 = var\n%0:i64 = sext %x\ninfer %0",
	"%x:i6 = var\n%y:i6 = var\n%0:i64 = zext %x\n%1:i64 = zext %y\n%2:i64 = sub %0, %1\ninfer %2",
}

// FuzzSlicedMatchesScalar parses arbitrary IR text and fills one block
// of input planes from the fuzz bytes, through EvalPlanes: every lane's
// ok bit and value must equal scalar Eval on that lane's inputs. At 12
// input bits or fewer, Outputs in both orders must also equal scalar
// enumeration.
func FuzzSlicedMatchesScalar(f *testing.F) {
	seed := make([]byte, 64)
	rand.New(rand.NewSource(3)).Read(seed)
	for _, fr := range harvest.PaperFragments {
		f.Add(fr.Source, seed)
	}
	for _, src := range exactSrcs {
		f.Add(src, seed)
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		fn, err := ir.Parse(src)
		if err != nil {
			return
		}
		off := 0
		next := func() uint64 { // 8 bytes of data, little-endian, wrapping
			var w uint64
			for b := 0; b < 8 && len(data) > 0; b++ {
				w |= uint64(data[off%len(data)]) << (8 * b)
				off++
			}
			return w
		}
		checkPlanes(t, src, fn, eval.CompileSliced(fn), next)
		if eval.TotalInputBits(fn) <= 12 {
			checkOutputs(t, src, fn)
		}
	})
}

// TestOutputsStop pins the output sweep's stop poll: before every 64th
// block, and a stop ends the sweep with nothing kept and the lanes run so
// far counted.
func TestOutputsStop(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%y:i6 = var\n%0:i8 = zext %y\n%1:i8 = add %x, %0\ninfer %1")
	sp := eval.CompileSliced(f) // 2^14 inputs: 256 blocks, polled before blocks 64, 128, 192
	polls := 0
	if _, evals, ok := sp.Outputs(false, func() bool { polls++; return false }); !ok || evals != 1<<14 || polls != 3 {
		t.Errorf("unstopped sweep: ok = %v after %d lanes and %d polls, want true after 16384 and 3", ok, evals, polls)
	}
	polls = 0
	if vals, evals, ok := sp.Outputs(true, func() bool { polls++; return true }); ok || vals != nil || evals != 64*64 || polls != 1 {
		t.Errorf("stopped sweep = (%v, %d, %v) after %d polls, want (nil, 4096, false) after 1", vals, evals, ok, polls)
	}
}
