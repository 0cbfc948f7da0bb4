package solver

import (
	"bytes"
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/trace"
)

// coversAll is the definition a certificate refutes: some wrapped window
// [X, X+c) holds every value of vals, that is, some circular run of
// values outside vals is at least 2^w − c long. vals must not be empty.
func coversAll(w uint, c uint64, vals []uint64) bool {
	s := slices.Clone(vals)
	slices.Sort(s)
	s = slices.Compact(s)
	top := apint.AllOnes(w).Uint64()
	longest := s[0] + (top - s[len(s)-1]) // the wrapped run
	for i := 1; i < len(s); i++ {
		longest = max(longest, s[i]-s[i-1]-1)
	}
	return longest >= top-c+1 // 2^w − c, kept in range at w = 64
}

// scalarOutputs enumerates f's well-defined outputs with the scalar
// interpreter.
func scalarOutputs(f *ir.Function) []uint64 {
	var outs []uint64
	eval.ForEachInput(f, func(env eval.Env) bool {
		if v, ok := eval.Eval(f, env); ok {
			outs = append(outs, v.Uint64())
		}
		return true
	})
	return outs
}

// TestWindowSetMatchesDefinition: over random value sets at widths 1 to
// 64, clustered, spread and straddling the wrap point, a windowSet's
// verdict for every size it accepts is the definition's.
func TestWindowSetMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2000; trial++ {
		w := []uint{1, 2, 3, 5, 8, 9, 12, 16, 17, 32, 63, 64}[rng.Intn(12)]
		top := apint.AllOnes(w).Uint64()
		var vals []uint64
		n := 1 + rng.Intn(400)
		step := top / uint64(n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0: // evenly spread, jittered: the refutable shape
				v := uint64(i)*step + uint64(rng.Intn(3))
				vals = append(vals, v&top)
			case 1: // near the wrap point
				vals = append(vals, (top-uint64(rng.Intn(5))+uint64(rng.Intn(2))*uint64(rng.Intn(5)))&top)
			default:
				vals = append(vals, rng.Uint64()&top)
			}
		}
		sizes := []uint64{1, top / 2, top - top/333, top - 1, top, rng.Uint64() & top}
		if w <= 5 {
			sizes = sizes[:0]
			for c := uint64(1); c <= top; c++ {
				sizes = append(sizes, c)
			}
		}
		if newWindowSet(w, maxTried(w)) == nil {
			t.Fatalf("w=%d: no set for the oracle's bound", w)
		}
		for _, c := range sizes {
			ws := newWindowSet(w, apint.New(w, c))
			if ws == nil {
				continue // size 0, or too many buckets
			}
			for _, v := range vals {
				ws.add(v)
			}
			if got, want := ws.refuted(), !coversAll(w, c, vals); got != want {
				t.Fatalf("w=%d c=%d over %d values: refuted %v, want %v", w, c, len(vals), got, want)
			}
		}
	}
}

// certCorpus holds functions over every path RefuteWindow takes: 13 and
// 14 input bits (EnumEngine), 15 and 16 (a SAT engine's exhaustive pass,
// two with i32 roots), and 24 to 64 (seeded random blocks, two with i32
// roots). refutable says whether the function's image fits no window of
// the oracle's bound B. Five do fit one: the four values 0, 32767,
// 32768 and 65535 (full hulls, on the exhaustive and the sampled path);
// udiv by 3, whose image is the first third of the circle; and eight
// multiples of 8191, whose range metadata leaves all but eight values of
// %x ill-defined: the lanes outside the well-defined mask cover the
// whole circle and would refute it (on both paths).
var certCorpus = []struct {
	src       string
	refutable bool
}{
	{"%x:i13 = var\n%0:i13 = mul %x, 7:i13\ninfer %0", true},
	{"%x:i14 = var\n%0:i14 = shl %x, 1:i14\n%1:i14 = or %0, 1:i14\ninfer %1", true},
	{"%x:i9 = var\n%y:i4 = var\n%0:i9 = zext %y\n%1:i9 = sub %x, %0\ninfer %1", true},
	{"%x:i15 = var\n%0:i15 = xor %x, 21845:i15\ninfer %0", true},
	{"%x:i16 = var\n%0:i32 = zext %x\n%1:i32 = mul %0, 65537:i32\ninfer %1", true},
	{"%x:i16 = var\n%0:i32 = zext %x\n%1:i32 = shl %0, 16:i32\ninfer %1", true},
	{"%x:i8 = var\n%y:i8 = var\n%0:i16 = zext %x\n%1:i16 = shl %0, 8:i16\n%2:i16 = zext %y\n%3:i16 = or %1, %2\ninfer %3", true},
	{"%x:i16 = var\n%0:i16 = ashr %x, 15:i16\n%1:i16 = and %x, 1:i16\n%2:i16 = mul %1, 32767:i16\n%3:i16 = xor %0, %2\ninfer %3", false},
	{"%x:i12 = var\n%y:i12 = var\n%0:i12 = add %x, %y\ninfer %0", true},
	{"%x:i16 = var\n%y:i16 = var\n%0:i16 = mul %x, %y\ninfer %0", true},
	{"%x:i32 = var\n%y:i32 = var\n%0:i32 = xor %x, %y\ninfer %0", true},
	{"%x:i64 = var\n%0:i64 = mul %x, 3:i64\ninfer %0", true},
	{"%x:i32 = var\n%0:i32 = udiv %x, 3:i32\ninfer %0", false},
	{"%x:i16 = var\n%y:i16 = var\n%0:i16 = ashr %x, 15:i16\n%1:i16 = and %y, 1:i16\n%2:i16 = mul %1, 32767:i16\n%3:i16 = xor %0, %2\ninfer %3", false},
	{"%x:i16 = var (range=[0,8))\n%0:i16 = mul %x, 8191:i16\ninfer %0", false},
	{"%x:i16 = var (range=[0,8))\n%y:i16 = var\n%0:i16 = mul %x, 8191:i16\n%1:i16 = and %y, 0:i16\n%2:i16 = or %0, %1\ninfer %2", false},
}

// maxTried is the oracle's bound B = max − ⌊max/333⌋, the size its
// certificates ask about.
func maxTried(w uint) apint.Int {
	m := apint.AllOnes(w).Uint64()
	return apint.New(w, m-m/333)
}

// TestRefuteWindowSamplesAreReal re-derives the outputs each
// certificate of certCorpus rests on with the scalar interpreter. Up to
// 16 input bits the engine's set is the whole image, which scalar
// enumeration gives, and the engine must refute exactly when that image
// fits no window of size B. Above, the test draws the engine's blocks
// from the same seed and evaluates every lane with eval.Eval: a refuting
// engine must be refuted by those scalar-checked outputs too, at the
// same checkpoint, so every refutation rests on outputs the interpreter
// reaches. A function whose image fits a window must not be refuted.
// From the trace it checks each answer is one enum-class "range-sample"
// query.
func TestRefuteWindowSamplesAreReal(t *testing.T) {
	refuted := map[string]int{}
	for _, c := range certCorpus {
		f := ir.MustParse(c.src)
		w, n := f.Width(), eval.TotalInputBits(f)
		b := maxTried(w)
		eng := NewEngine(f, Config{})
		var buf bytes.Buffer
		tr := trace.New(&buf)
		root := tr.Start(nil, trace.KindExpr, "expr")
		eng.SetTraceSpan(root)
		got := eng.RefuteWindow(b)
		root.End()
		spans, evals := 0, int64(0)
		for _, ev := range closeTrace(t, tr, &buf) {
			if ev.Name == "range-sample" {
				spans++
				if ev.Args["class"] != classEnum {
					t.Errorf("%s: range-sample span %v, want class enum", c.src, ev.Args)
				}
				if e, ok := ev.Args["evals"].(float64); ok {
					evals = int64(e)
				}
			}
		}
		if spans != 1 {
			t.Errorf("%s: %d range-sample spans, want 1", c.src, spans)
		}

		path := "sampled"
		if n <= DemandedSweepBits {
			path = "exhaustive"
			if want := !coversAll(w, b.Uint64(), scalarOutputs(f)); want != c.refutable {
				t.Fatalf("%s: scalar enumeration says refutable %v, the corpus %v", c.src, want, c.refutable)
			}
		}
		switch {
		case got != c.refutable:
			t.Errorf("%s\n%s path: refuted %v, want %v", c.src, path, got, c.refutable)
		case got && path == "sampled":
			if !scalarSampleRefutes(f, b.Uint64(), uint64(evals/64)) {
				t.Errorf("%s: the scalar replay of the engine's %d lanes does not refute", c.src, evals)
			}
		}
		if got {
			refuted[path]++
		}
		if st := eng.Stats(); st.Queries != 1 || st.EnumQueries != 1 {
			t.Errorf("%s: %+v, want one enum query", c.src, st)
		}
	}
	t.Logf("refutations by path: %v", refuted)
	if refuted["exhaustive"] == 0 || refuted["sampled"] == 0 {
		t.Fatalf("refutations by path %v: want both paths to refute", refuted)
	}
}

// scalarSampleRefutes replays the first blocks of a SAT engine's random
// draws for f with the scalar interpreter: the same generator and
// draws, each lane's input unpacked from the planes and run through
// eval.Eval. It reports whether the well-defined outputs fit no window
// of size c.
func scalarSampleRefutes(f *ir.Function, c, blocks uint64) bool {
	rng, vars := sampleRNG(f), f.Vars
	in := newPlanes(vars)
	var outs []uint64
	byVar := make([][64]uint64, len(vars))
	env := make(eval.Env, len(vars))
	for blk := uint64(0); blk < blocks; blk++ {
		drawPlanes(rng, vars, in)
		for k := range vars {
			eval.Lanes(in[k], ^uint64(0), &byVar[k])
		}
		for l := 0; l < 64; l++ {
			for k, v := range vars {
				env[v] = apint.New(v.Width, byVar[k][l])
			}
			if v, ok := eval.Eval(f, env); ok {
				outs = append(outs, v.Uint64())
			}
		}
	}
	return len(outs) > 0 && !coversAll(f.Width(), c, outs)
}

// TestRefuteWindowEnumMatchesDefinition: EnumEngine answers from its
// memoized outputs, which are the whole image, so its verdict at every
// size a windowSet accepts is the definition's over scalar enumeration.
func TestRefuteWindowEnumMatchesDefinition(t *testing.T) {
	srcs := slices.Clone(crossCheckCorpus)
	for _, c := range certCorpus[:3] {
		srcs = append(srcs, c.src)
	}
	for _, src := range srcs {
		f := ir.MustParse(src)
		outs := scalarOutputs(f)
		if len(outs) == 0 {
			continue
		}
		w := f.Width()
		top := apint.AllOnes(w).Uint64()
		e := NewEnum(f)
		for _, c := range []uint64{1, 2, top / 2, top - top/333, top - 1, top} {
			if c == 0 || c > top || newWindowSet(w, apint.New(w, c)) == nil {
				continue // a size that is zero or wraps at w = 1, or too many buckets
			}
			if got, want := e.RefuteWindow(apint.New(w, c)), !coversAll(w, c, outs); got != want {
				t.Errorf("%s\nsize %d: refuted %v, want %v", src, c, got, want)
			}
		}
	}
}

// TestRefuteWindowCancelled: on every path, an engine whose context is
// done refutes nothing and counts its one query as exhausted; NewSAT's
// engines neither refute nor count.
func TestRefuteWindowCancelled(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range certCorpus {
		if !c.refutable {
			continue // only refutable functions show what cancellation takes away
		}
		f := ir.MustParse(c.src)
		b := maxTried(f.Width())
		e := NewEngine(f, Config{Ctx: done})
		if e.RefuteWindow(b) {
			t.Errorf("%s: refuted past cancellation", c.src)
		}
		if st := e.Stats(); st.Queries != 1 || st.EnumQueries != 1 || st.Exhausted != 1 {
			t.Errorf("%s: stats %+v after a cancelled certificate, want 1 query, 1 enum, 1 exhausted", c.src, st)
		}
		ref := NewSAT(f, 0)
		if ref.RefuteWindow(b) {
			t.Errorf("%s: the reference engine refuted", c.src)
		}
		if st := ref.Stats(); st.Queries != 0 {
			t.Errorf("%s: the reference engine counted %d queries", c.src, st.Queries)
		}
	}
}

// TestRefuteBlocksStallRule: random draws stop, refuting nothing, at the
// first check after one where the set already held outputs and no bucket
// bound moved in between; an empty set is no stall, an exhaustive pass
// never stops early, and a set whose extremes keep moving runs to the
// end.
func TestRefuteBlocksStallRule(t *testing.T) {
	const w, n = 8, 1024
	// block returns a block whose well-defined lanes all output v.
	block := func(v uint64) ([]uint64, uint64) {
		planes := make([]uint64, w)
		for j := range planes {
			if v>>j&1 == 1 {
				planes[j] = ^uint64(0)
			}
		}
		return planes, ^uint64(0)
	}
	cases := []struct {
		name    string
		sampled bool
		next    func(b uint64) ([]uint64, uint64)
		refuted bool
		blocks  int64
	}{
		{"constant, sampled", true, func(uint64) ([]uint64, uint64) { return block(5) }, false, 128},
		{"constant, exhaustive", false, func(uint64) ([]uint64, uint64) { return block(5) }, false, n},
		// Nothing well-defined for 300 blocks, then every value: an empty
		// set at the checks before is no stall.
		{"empty, then every value", true, func(b uint64) ([]uint64, uint64) {
			if b < 300 {
				return make([]uint64, w), 0
			}
			return block(b % 256)
		}, true, 1024},
		// A new extreme in every doubling, but a hole of 128 stays.
		{"moving extremes", true, func(b uint64) ([]uint64, uint64) { return block(uint64(bits.Len64(b))) }, false, n},
	}
	for _, c := range cases {
		ws := newWindowSet(w, apint.New(w, 255))
		refuted, evals, ok := refuteBlocks(ws, n, c.sampled, c.next, context.Background(), time.Time{})
		if !ok || refuted != c.refuted || evals != 64*c.blocks {
			t.Errorf("%s: refuted %v after %d blocks (ok %v), want refuted %v after %d", c.name, refuted, evals/64, ok, c.refuted, c.blocks)
		}
	}
}
