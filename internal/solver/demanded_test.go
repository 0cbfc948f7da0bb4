package solver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/trace"
)

// pairSweepDemanded is the per-bit pair sweep EnumEngine answered demanded
// bits with before the one demanded-bits sweep, kept as that sweep's
// reference. For one variable v it decides whether each bit can change the
// output: bits whose packed position lands inside a block compare sibling
// lanes of every block (one pass for all of them), and each bit at packed
// position ≥ 6 re-evaluates both blocks of every sibling-block pair.
func pairSweepDemanded(f *ir.Function, v *ir.Inst) []bool {
	sliced := eval.CompileSliced(f)
	var varOff uint // packed-index offset of v's bits (LSB-first layout)
	for _, u := range f.Vars {
		if u == v {
			break
		}
		varOff += u.Width
	}
	count := uint64(1) << eval.TotalInputBits(f)
	m := make([]bool, v.Width)

	// Pass 1: bits whose packed position lands inside a block. The
	// sibling of lane l is lane l^(1<<pos) of the same block.
	if lowBits := int(6 - varOff); lowBits > 0 {
		if lowBits > int(v.Width) {
			lowBits = int(v.Width)
		}
		for base := uint64(0); base < count; base += 64 {
			planes, okm := sliced.EvalIndexed(base)
			for bit := uint(0); bit < uint(lowBits); bit++ {
				pos := varOff + bit
				d := uint(1) << pos
				mSet := eval.LaneIndex[pos]
				okSib := ((okm >> d) &^ mSet) | ((okm << d) & mSet)
				both := okm & okSib
				var diff uint64
				for _, p := range planes {
					q := ((p >> d) &^ mSet) | ((p << d) & mSet)
					diff |= p ^ q
				}
				if diff&both != 0 {
					m[bit] = true
				}
			}
		}
	}

	// Pass 2: bits at packed positions ≥ 6 pair corresponding lanes of
	// sibling blocks base and base^(1<<pos), visited from the bit-clear
	// side. EvalIndexed reuses its buffers, so block A's root is copied
	// out before evaluating block B.
	rootA := make([]uint64, f.Root.Width)
	for bit := uint(0); bit < v.Width; bit++ {
		pos := varOff + bit
		if pos < 6 {
			continue
		}
		step := uint64(1) << pos
		for hi := uint64(0); hi < count && !m[bit]; hi += 2 * step {
			for base := hi; base < hi+step && !m[bit]; base += 64 {
				pA, okA := sliced.EvalIndexed(base)
				copy(rootA, pA)
				pB, okB := sliced.EvalIndexed(base ^ step)
				var diff uint64
				for i, p := range pB {
					diff |= rootA[i] ^ p
				}
				if diff&okA&okB != 0 {
					m[bit] = true
				}
			}
		}
	}
	return m
}

// ubHeavyCorpus exercises the sweep's ok-mask handling: division and
// remainder by a variable, shift amounts that can reach the width, nsw/nuw
// poison and range metadata, over one-block and multi-block input spaces.
var ubHeavyCorpus = []string{
	"%x:i4 = var\n%y:i4 = var\n%0:i4 = udiv %x, %y\ninfer %0",
	"%x:i8 = var\n%y:i8 = var\n%0:i8 = srem %x, %y\ninfer %0",
	"%x:i8 = var\n%y:i8 = var\n%0:i8 = shl %x, %y\ninfer %0",
	"%x:i8 = var\n%y:i7 = var\n%0:i8 = zext %y\n%1:i8 = lshrexact %x, %0\ninfer %1",
	"%x:i8 = var\n%y:i8 = var\n%0:i8 = addnsw %x, %y\n%1:i8 = mulnuw %0, %y\ninfer %1",
	"%x:i8 = var (range=[3,200))\n%y:i8 = var (range=[250,4))\n%0:i8 = sdiv %x, %y\ninfer %0",
	"%x:i3 = var (range=[1,6))\n%y:i2 = var\n%0:i3 = zext %y\n%1:i3 = ashr %x, %0\ninfer %1",
	"%x:i8 = var\n%y:i8 = var\n%0:i8 = and %y, 7:i8\n%1:i8 = shlnsw %x, %0\n%2:i8 = udivexact %1, %y\ninfer %2",
	"%v2:i8 = var\n%v3:i8 = var\n%0:i8 = and %v2, 127:i8\n%1:i8 = fshr %v2, %0, %0\n%2:i8 = add %1, %1\n%3:i8 = srem %2, %v3\n%4:i8 = addnsw 1:i8, %3\ninfer %4",
	"%x:i16 = var\n%0:i16 = udiv 1000:i16, %x\ninfer %0",
}

// sweepCorpus returns every function the enum cross-checks use: the
// engine cross-check corpus, the small-width shapes at widths 1..5 (the
// whole input space inside one block) and the UB-heavy corpus.
func sweepCorpus() map[string]*ir.Function {
	out := make(map[string]*ir.Function)
	for i, src := range crossCheckCorpus {
		out[fmt.Sprintf("cross-check/%d", i)] = ir.MustParse(src)
	}
	for w := uint(1); w <= 5; w++ {
		for name, f := range smallWidthFuncs(w) {
			out[fmt.Sprintf("w%d/%s", w, name)] = f
		}
	}
	for i, src := range ubHeavyCorpus {
		out[fmt.Sprintf("ub-heavy/%d", i)] = ir.MustParse(src)
	}
	return out
}

func sweptBits(t *testing.T, f *ir.Function) []bool {
	t.Helper()
	d := &demandedSweep{f: f}
	if !d.sweep(eval.CompileSliced(f), nil, nil, time.Time{}) {
		t.Fatal("uncancelled sweep returned not-ok")
	}
	return d.bits
}

// TestDemandedSweepMatchesPairSweep checks the one sweep against the pair
// sweep it replaced, on every variable of every cross-check function.
func TestDemandedSweepMatchesPairSweep(t *testing.T) {
	for name, f := range sweepCorpus() {
		bits := sweptBits(t, f)
		if len(bits) != int(eval.TotalInputBits(f)) {
			t.Fatalf("%s: %d answers for %d input bits", name, len(bits), eval.TotalInputBits(f))
		}
		pos := 0
		for _, v := range f.Vars {
			want := pairSweepDemanded(f, v)
			for bit := range want {
				if bits[pos] != want[bit] {
					t.Errorf("%s: %%%s bit %d: sweep %v, pair sweep %v", name, v.Name, bit, bits[pos], want[bit])
				}
				pos++
			}
		}
	}
}

// sixteenBitFuncs returns generated functions with 15 or 16 summed input
// bits, which NewEngine routes to the SAT engine with the demanded-bits
// sweep.
func sixteenBitFuncs(t *testing.T, n int) []harvest.Expr {
	t.Helper()
	var out []harvest.Expr
	for seed := int64(1); len(out) < n && seed < 100; seed++ {
		for _, e := range harvest.Generate(harvest.Config{
			Seed: seed, NumExprs: 50, MaxInsts: 4, MaxExpensive: 1, MaxCastWidth: 8,
			Widths: []harvest.WidthWeight{{Width: 8, Weight: 4}, {Width: 5, Weight: 1}, {Width: 7, Weight: 1}},
		}) {
			if bits := eval.TotalInputBits(e.F); bits == 15 || bits == 16 {
				out = append(out, e)
			}
		}
	}
	if len(out) < n {
		t.Fatalf("generated %d functions at 15-16 input bits, want %d", len(out), n)
	}
	return out[:n]
}

// TestSweepEngineMatchesMiter checks that a SAT engine NewEngine routes to
// the sweep answers every demanded-bits query as NewSAT's miter does, on
// generated functions at 15–16 input bits and on the UB-heavy corpus,
// and that it never blasts a miter for them.
func TestSweepEngineMatchesMiter(t *testing.T) {
	fs := make(map[string]*ir.Function)
	for _, e := range sixteenBitFuncs(t, 24) {
		fs[e.Name+"\n"+e.F.String()] = e.F
	}
	for i, src := range ubHeavyCorpus {
		if f := ir.MustParse(src); eval.TotalInputBits(f) > DefaultEnumCutoff {
			fs[fmt.Sprintf("ub-heavy/%d", i)] = f
		}
	}
	checked, undemanded, skipped := 0, 0, 0
	for name, f := range fs {
		eng, ok := NewEngine(f, Config{}).(*SATEngine)
		if !ok || eng.demanded == nil {
			t.Fatalf("%s: NewEngine gave %T without the sweep", name, eng)
		}
		miter := NewSAT(f, 20000)
		for _, v := range f.Vars {
			for bit := uint(0); bit < v.Width; bit++ {
				want, ok := miter.BitMatters(v, bit)
				if !ok {
					skipped++ // the miter ran out of budget: nothing to compare
					continue
				}
				got, ok := eng.BitMatters(v, bit)
				if !ok || got != want {
					t.Errorf("%s: BitMatters(%%%s, %d) = (%v, %v), miter %v", name, v.Name, bit, got, ok, want)
				}
				checked++
				if !want {
					undemanded++
				}
			}
		}
		if st := eng.Stats(); st.Conflicts != 0 || st.GatesBuilt != 0 || st.Queries != st.EnumQueries {
			t.Errorf("%s: sweep engine stats %+v: want no SAT work", name, st)
		}
	}
	if checked == 0 || undemanded == 0 {
		t.Fatalf("%d bits compared, %d of them undemanded: want both non-zero", checked, undemanded)
	}
	t.Logf("%d functions, %d bits compared (%d undemanded), %d skipped on miter exhaustion", len(fs), checked, undemanded, skipped)
}

// TestSweepEngineCancelled: a SAT engine routed to the sweep fails
// BitMatters fast, counted exhausted, once its deadline has passed or its
// context is done, as the miter path does (TestDeadlineExhaustsQueries).
func TestSweepEngineCancelled(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = mul %x, %y\ninfer %0")
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for name, cfg := range map[string]Config{
		"deadline": {Deadline: time.Now().Add(-time.Second)},
		"context":  {Ctx: done},
	} {
		e := NewEngine(f, cfg).(*SATEngine)
		if e.demanded == nil {
			t.Fatalf("%s: 16-bit engine not routed to the sweep", name)
		}
		for bit := uint(0); bit < 2; bit++ {
			if _, ok := e.BitMatters(f.Vars[0], bit); ok {
				t.Errorf("%s: BitMatters(%%x, %d) answered past cancellation", name, bit)
			}
		}
		if st := e.Stats(); st.Queries != 2 || st.EnumQueries != 2 || st.Exhausted != 2 {
			t.Errorf("%s: stats %+v, want 2 queries, 2 enum, 2 exhausted", name, st)
		}
	}
}

// pollCtx is a context that reports itself cancelled from its n-th Err
// call on, counting every call.
type pollCtx struct {
	context.Context
	n, calls int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSweepCancelStopsWithin64Blocks cancels the sweep of a 16-bit SAT
// engine (1,024 blocks) at its second context check: the check before the
// sweep passes, and the sweep must stop at its first poll, after 64
// blocks, keep no partial answer and count the query exhausted. The trace
// shows the query as an exhausted enum-class "bit-matters" span over a
// "demanded-sweep" span of 64 × 64 evaluations.
func TestSweepCancelStopsWithin64Blocks(t *testing.T) {
	// Bit 0 of %y is never demanded, so the sweep cannot stop early.
	f := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = lshr %y, 1:i8\n%1:i8 = mul %x, %0\ninfer %1")
	ctx := &pollCtx{Context: context.Background(), n: 2}
	e := NewEngine(f, Config{Ctx: ctx}).(*SATEngine)
	var buf bytes.Buffer
	tr := trace.New(&buf)
	root := tr.Start(nil, trace.KindExpr, "expr")
	e.SetTraceSpan(root)
	if _, ok := e.BitMatters(f.Vars[1], 0); ok {
		t.Fatal("sweep completed through a cancelled context")
	}
	if ctx.calls != 2 || e.demanded.bits != nil {
		t.Fatalf("context checked %d times, answers kept: %v; want 2 checks and none kept", ctx.calls, e.demanded.bits != nil)
	}
	if _, ok := e.BitMatters(f.Vars[1], 1); ok {
		t.Fatal("query after the cancel answered")
	}
	if st := e.Stats(); st.Queries != 2 || st.EnumQueries != 2 || st.Exhausted != 2 {
		t.Errorf("stats %+v, want 2 queries, 2 enum, 2 exhausted", st)
	}
	root.End()
	var queries, sweeps int
	for _, ev := range closeTrace(t, tr, &buf) {
		switch ev.Name {
		case "bit-matters":
			queries++
			if ev.Cat != "query" || ev.Args["class"] != classEnum || ev.Args["result"] != "exhausted" {
				t.Errorf("bit-matters span %s %v, want an exhausted enum query", ev.Cat, ev.Args)
			}
		case "demanded-sweep":
			sweeps++
			if got := ev.Args["evals"]; got != float64(64*64) {
				t.Errorf("cancelled sweep evaluated %v lanes, want %d", got, 64*64)
			}
		}
	}
	if queries != 2 || sweeps != 1 {
		t.Errorf("%d bit-matters and %d demanded-sweep spans, want 2 and 1", queries, sweeps)
	}
}

// TestEnumSweepCancelCountsEvals is the output sweep's side of the test
// above: an EnumEngine cancelled at the sweep's first poll stops after 64
// blocks, keeps nothing, and its "enum-sweep" span records the 64 × 64
// lanes it evaluated, as "demanded-sweep" does.
func TestEnumSweepCancelCountsEvals(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = mul %x, %y\ninfer %0")
	e := NewEnum(f)
	ctx := &pollCtx{Context: context.Background(), n: 2}
	e.Ctx = ctx
	var buf bytes.Buffer
	tr := trace.New(&buf)
	root := tr.Start(nil, trace.KindExpr, "expr")
	e.SetTraceSpan(root)
	if _, ok := e.CanBeZero(); ok {
		t.Fatal("sweep completed through a cancelled context")
	}
	if ctx.calls != 2 || e.enumerated || e.outputs != nil {
		t.Fatalf("context checked %d times, outputs kept: %v; want 2 checks and none kept", ctx.calls, e.enumerated)
	}
	root.End()
	sweeps := 0
	for _, ev := range closeTrace(t, tr, &buf) {
		if ev.Name == "enum-sweep" {
			sweeps++
			if got := ev.Args["evals"]; got != float64(64*64) {
				t.Errorf("cancelled sweep evaluated %v lanes, want %d", got, 64*64)
			}
		}
	}
	if sweeps != 1 {
		t.Errorf("%d enum-sweep spans, want 1", sweeps)
	}
}

// spanEvent is the part of a trace event the tests above read.
type spanEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

// closeTrace closes tr and decodes the events it wrote to buf.
func closeTrace(t *testing.T, tr *trace.Tracer, buf *bytes.Buffer) []spanEvent {
	t.Helper()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []spanEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	return evs
}

// sampledCorpus holds functions above DemandedSweepBits, where NewEngine
// samples witness pairs before it asks a miter: 17, 24, 32, 40 and 48
// input bits, one with range metadata and one shift-heavy, whose shift
// amount's high bits are undemanded because flipping one always leaves
// one run ill-defined.
var sampledCorpus = []string{
	"%x:i8 = var\n%y:i9 = var\n%0:i8 = trunc %y\n%1:i8 = add %x, %0\ninfer %1",
	"%x:i12 = var\n%y:i12 = var\n%0:i12 = mul %x, %y\n%1:i12 = lshr %0, 4:i12\ninfer %1",
	"%x:i16 = var (range=[3,1000))\n%y:i8 = var\n%0:i16 = zext %y\n%1:i16 = udiv %x, %0\ninfer %1",
	"%x:i16 = var\n%s:i16 = var\n%0:i16 = shl %x, %s\n%1:i16 = lshr %0, %s\n%2:i16 = ashr %1, 3:i16\ninfer %2",
	"%x:i32 = var\n%y:i8 = var\n%0:i32 = zext %y\n%1:i32 = and %x, %0\n%2:i32 = add %1, 1:i32\ninfer %2",
	"%x:i16 = var\n%y:i16 = var\n%z:i16 = var\n%0:i16 = mulnsw %x, %y\n%1:i16 = urem %0, %z\n%2:i8 = trunc %1\ninfer %2",
}

// demandedMasks asks e BitMatters for every bit of every variable of f,
// one answer per packed input position; ok is false where e ran out of
// budget.
func demandedMasks(e Engine, f *ir.Function) (matters, ok []bool) {
	for _, v := range f.Vars {
		for bit := uint(0); bit < v.Width; bit++ {
			m, k := e.BitMatters(v, bit)
			matters, ok = append(matters, m), append(ok, k)
		}
	}
	return matters, ok
}

// TestNewEngineDemandedMatchesMiter: an engine from NewEngine — the
// exhaustive sweep at or below DemandedSweepBits, sampled witness pairs
// plus miters above — gives every function of the engine cross-check
// corpus and of the sampled corpus the demanded mask NewSAT's miters
// alone give. Bits the miter cannot decide within its budget are skipped.
func TestNewEngineDemandedMatchesMiter(t *testing.T) {
	srcs := append(append([]string(nil), crossCheckCorpus...), sampledCorpus...)
	var sampled, mitered, skipped int64
	for _, src := range srcs {
		f := ir.MustParse(src)
		want, wantOK := demandedMasks(NewSAT(f, 20000), f)
		eng := NewEngine(f, Config{})
		got, gotOK := demandedMasks(eng, f)
		for pos := range want {
			if !wantOK[pos] {
				skipped++
				continue
			}
			if !gotOK[pos] || got[pos] != want[pos] {
				t.Errorf("%s\nposition %d: NewEngine (%v, %v), miter %v", src, pos, got[pos], gotOK[pos], want[pos])
			}
		}
		if e, ok := eng.(*SATEngine); ok && e.sample != nil {
			st := e.Stats()
			sampled += st.EnumQueries
			mitered += st.Queries - st.EnumQueries
		}
	}
	if sampled == 0 || mitered == 0 {
		t.Fatalf("%d bits sampled, %d mitered: want both non-zero", sampled, mitered)
	}
	t.Logf("above the sweep: %d bits proved by samples, %d left to miters; %d skipped on miter exhaustion", sampled, mitered, skipped)
}

// TestSampleWitnessesAreReal re-checks every witness pair the sampler
// keeps with the scalar interpreter: the input and its copy with the bit
// flipped differ only in that bit, both runs are well-defined, and their
// outputs differ. From the trace it checks that each sampled answer is an
// enum-class "bit-matters" query and that the one "demanded-sample" span
// stays within the cost bound, sampleBlocks × (1 + input bits) block
// evaluations.
func TestSampleWitnessesAreReal(t *testing.T) {
	proved := 0
	for _, src := range sampledCorpus {
		f := ir.MustParse(src)
		e := NewEngine(f, Config{}).(*SATEngine)
		var buf bytes.Buffer
		tr := trace.New(&buf)
		root := tr.Start(nil, trace.KindExpr, "expr")
		e.SetTraceSpan(root)
		matters, _ := demandedMasks(e, f)
		root.End()
		n := eval.TotalInputBits(f)
		samples, enumAnswers := 0, int64(0)
		for _, ev := range closeTrace(t, tr, &buf) {
			switch {
			case ev.Name == "demanded-sample":
				samples++
				if got, limit := ev.Args["evals"].(float64), float64(64*sampleBlocks*(1+n)); got > limit {
					t.Errorf("%s: sampler evaluated %v lanes, more than %v", src, got, limit)
				}
			case ev.Name == "bit-matters" && ev.Args["class"] == classEnum:
				enumAnswers++
				if ev.Args["result"] != "sat" {
					t.Errorf("%s: sampled bit-matters span %v, want result sat", src, ev.Args)
				}
			}
		}
		if st := e.Stats(); samples != 1 || enumAnswers != st.EnumQueries {
			t.Errorf("%s: %d demanded-sample spans and %d enum bit-matters spans for %d enum queries, want 1 and equal",
				src, samples, enumAnswers, st.EnumQueries)
		}
		pos := 0
		for _, v := range f.Vars {
			for bit := uint(0); bit < v.Width; bit, pos = bit+1, pos+1 {
				wit := e.sample.witness[pos]
				if !e.sample.proved[pos] {
					if wit != nil {
						t.Errorf("%s: %%%s bit %d has a witness but is not proved", src, v.Name, bit)
					}
					continue
				}
				proved++
				if !matters[pos] {
					t.Errorf("%s: %%%s bit %d proved by a sample, answered not demanded", src, v.Name, bit)
				}
				a, b := make(eval.Env, len(f.Vars)), make(eval.Env, len(f.Vars))
				for k2, u := range f.Vars {
					a[u] = apint.New(u.Width, wit[k2])
					b[u] = a[u]
				}
				b[v] = a[v].Xor(apint.New(v.Width, 1<<bit))
				va, oka := eval.Eval(f, a)
				vb, okb := eval.Eval(f, b)
				if !oka || !okb || va.Eq(vb) {
					t.Errorf("%s: %%%s bit %d: witness %v gives (%v, %v) and flipped (%v, %v); want two different well-defined outputs",
						src, v.Name, bit, a, va, oka, vb, okb)
				}
			}
		}
	}
	if proved == 0 {
		t.Fatal("the sampler proved no bit demanded")
	}
}

// TestSampleCancelledLeavesMiter: a sampler whose context is done before
// it starts proves nothing and evaluates nothing, so every bit reaches
// the miter, which fails fast as exhausted — the same counts as NewSAT
// past its deadline.
func TestSampleCancelledLeavesMiter(t *testing.T) {
	f := ir.MustParse(sampledCorpus[1])
	done, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(f, Config{Ctx: done}).(*SATEngine)
	for bit := uint(0); bit < 3; bit++ {
		if _, ok := e.BitMatters(f.Vars[0], bit); ok {
			t.Errorf("BitMatters(%%x, %d) answered past cancellation", bit)
		}
	}
	if st := e.Stats(); st.Queries != 3 || st.EnumQueries != 0 || st.Exhausted != 3 {
		t.Errorf("stats %+v, want 3 queries, 0 enum, 3 exhausted", st)
	}
	for pos, p := range e.sample.proved {
		if p {
			t.Fatalf("cancelled sampler proved position %d", pos)
		}
	}
}
