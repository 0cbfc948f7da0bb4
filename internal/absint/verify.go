package absint

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
)

// Config controls an exhaustive transfer-function verification sweep.
type Config struct {
	// Analyzer is the compiler under test; nil means the clean LLVM-8
	// port (zero llvmport.Analyzer).
	Analyzer *llvmport.Analyzer
	// MinWidth and MaxWidth bound the operand bit widths swept
	// (defaults 1 and 4; MaxWidth is clamped to 6, the widest width the
	// concrete-image machinery supports).
	MinWidth, MaxWidth uint
	// MaxRangeWidth bounds the widths at which the integer-range domain
	// is swept; its element count grows as 4^w, so the default caps it
	// at min(4, MaxWidth).
	MaxRangeWidth uint
	// MaxTuples caps the abstract input tuples per task; ternary ops
	// blow past any budget at width 6, so operands are progressively
	// restricted to singletons plus top (and the task marked Limited)
	// until the product fits. Default 1<<22.
	MaxTuples uint64
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int
	// Ops restricts the sweep to the given operations (nil = all).
	Ops []ir.Op
	// Domains restricts the sweep to the given input domains (nil = the
	// classic three LLVM-port fact domains: known bits, sign bits,
	// integer range). TransferDomains in the list (tnum, stride) are
	// graded through their own Transfer suites with no analyzer or
	// harness in the loop.
	Domains []Domain
	// Lint additionally runs the cross-domain consistency check
	// (CheckFacts) on every analyzed harness expression.
	Lint bool
	// Progress, when non-nil, is called after each completed task with
	// the done and total task counts. It must be safe for concurrent
	// use.
	Progress func(done, total int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Analyzer == nil {
		cfg.Analyzer = &llvmport.Analyzer{}
	}
	if cfg.MinWidth == 0 {
		cfg.MinWidth = 1
	}
	if cfg.MaxWidth == 0 {
		cfg.MaxWidth = 4
	}
	if cfg.MaxWidth > 6 {
		cfg.MaxWidth = 6
	}
	if cfg.MinWidth > cfg.MaxWidth {
		cfg.MinWidth = cfg.MaxWidth
	}
	if cfg.MaxRangeWidth == 0 {
		cfg.MaxRangeWidth = 4
	}
	if cfg.MaxRangeWidth > cfg.MaxWidth {
		cfg.MaxRangeWidth = cfg.MaxWidth
	}
	if cfg.MaxTuples == 0 {
		cfg.MaxTuples = 1 << 22
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Ops == nil {
		cfg.Ops = ir.AllOps()
	}
	return cfg
}

// Stat is one verification row: one op variant at one width, swept over
// one input domain and graded against one output domain.
type Stat struct {
	Op       string `json:"op"`
	Width    string `json:"width"`
	InDomain string `json:"input_domain"`
	Domain   string `json:"domain"`
	// Tuples counts graded abstract input tuples; Dead counts tuples
	// whose concrete image is empty (all inputs trigger UB), which are
	// vacuously sound and not graded for precision.
	Tuples    uint64 `json:"tuples"`
	Sound     uint64 `json:"sound"`
	Precise   uint64 `json:"precise"`
	Imprecise uint64 `json:"imprecise"`
	Unsound   uint64 `json:"unsound"`
	Dead      uint64 `json:"dead"`
	// Limited marks tasks whose tuple count hit MaxTuples, with some
	// operands restricted to singleton and top elements only.
	Limited bool `json:"limited,omitempty"`
}

// Witness is one minimal counterexample: the smallest-width abstract
// input tuple on which a transfer function was caught unsound (or, for
// Kind "inconsistent", on which two domains contradicted each other).
type Witness struct {
	Kind     string `json:"kind"` // "unsound" or "inconsistent"
	Op       string `json:"op"`
	Width    string `json:"width"`
	InDomain string `json:"input_domain"`
	Domain   string `json:"domain"`
	// Inputs holds the abstract operand facts ("const 4" for
	// singletons that were materialized as literals).
	Inputs []string `json:"inputs"`
	// Got is the analyzer's abstract output; Want is the best
	// abstraction of the concrete image (unsound witnesses only).
	Got  string `json:"got,omitempty"`
	Want string `json:"want,omitempty"`
	// ConcreteIn/ConcreteOut is a concrete evaluation that escapes the
	// claimed abstract output (unsound witnesses only).
	ConcreteIn  []string `json:"concrete_in,omitempty"`
	ConcreteOut string   `json:"concrete_out,omitempty"`
	// Detail carries the contradiction text for inconsistent witnesses.
	Detail string `json:"detail,omitempty"`
}

func (w Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s at %s over %s inputs (%s)", w.Kind, w.Op, w.Width, w.InDomain,
		strings.Join(w.Inputs, "; "))
	if w.Kind == "inconsistent" {
		fmt.Fprintf(&b, ": %s", w.Detail)
		return b.String()
	}
	fmt.Fprintf(&b, ": %s claims %s, best is %s", w.Domain, w.Got, w.Want)
	if w.ConcreteOut != "" {
		fmt.Fprintf(&b, "; counterexample %s = %s", strings.Join(w.ConcreteIn, ", "), w.ConcreteOut)
	}
	return b.String()
}

// Report is the outcome of one Verify sweep.
type Report struct {
	Stats    []Stat    `json:"stats"`
	Findings []Witness `json:"findings"`
	// Tuples is the total graded tuple count, LintChecks the total
	// consistency checks performed (zero unless Config.Lint).
	Tuples     uint64 `json:"tuples"`
	LintChecks uint64 `json:"lint_checks"`
}

// Sound reports whether the sweep found no soundness or consistency
// violation.
func (r *Report) Sound() bool { return len(r.Findings) == 0 }

// variant is an op together with one legal flag subset.
type variant struct {
	op    ir.Op
	flags ir.Flags
}

func (v variant) String() string { return v.op.String() + v.flags.String() }

type task struct {
	v     variant
	w     uint // operand width (source width for casts)
	dstW  uint // result width
	inDom Domain
}

func (t task) widthLabel() string {
	if t.v.op.IsCast() {
		return fmt.Sprintf("i%d→i%d", t.w, t.dstW)
	}
	return fmt.Sprintf("i%d", t.w)
}

func (t task) operandWidths() []uint {
	switch {
	case t.v.op.IsCast():
		return []uint{t.w}
	case t.v.op == ir.OpSelect:
		return []uint{1, t.w, t.w}
	default:
		ws := make([]uint, t.v.op.Arity())
		for i := range ws {
			ws[i] = t.w
		}
		return ws
	}
}

// inElem is one abstract element of an input domain together with its
// enumerated concretization.
type inElem struct {
	e      Elem
	vals   []apint.Int
	single bool
}

// inputDomains are the default domains swept as inputs; each maps to the
// output domains its facts feed. Known-bits facts feed the known-bits,
// sign-bits and predicate transfer functions (ValueTracking derives all
// of them from known bits); range facts feed only the range analysis;
// sign-bits facts feed only ComputeNumSignBits.
var inputDomains = []Domain{KnownBits, SignBits, IntegerRange}

func (cfg Config) inputDomains() []Domain {
	if cfg.Domains != nil {
		return cfg.Domains
	}
	return inputDomains
}

func outputDomains(in Domain) []Domain {
	if _, ok := in.(TransferDomain); ok {
		// A self-contained transfer suite is graded against itself.
		return []Domain{in}
	}
	switch in {
	case KnownBits:
		return []Domain{KnownBits, SignBits, NonZero, Negative, NonNegative, PowerOfTwo}
	case SignBits:
		return []Domain{SignBits}
	default:
		return []Domain{IntegerRange}
	}
}

// widthCapped reports whether dom's element count grows too fast for
// uncapped sweeping (4^w for ranges, 2^w + 4^(w-1) for strides); these
// domains respect Config.MaxRangeWidth.
func widthCapped(dom Domain) bool {
	return dom == IntegerRange || dom == Strides
}

// Verify exhaustively checks every transfer function of cfg.Analyzer at
// widths MinWidth..MaxWidth: for every op variant and every abstract
// input tuple, the analyzer's output fact is compared against the
// enumerated concrete image — unsound if some concrete result escapes
// it, imprecise if it is strictly weaker than the image's best
// abstraction. No SAT query is issued anywhere on this path.
func Verify(cfg Config) *Report {
	cfg = cfg.withDefaults()
	tasks := buildTasks(cfg)
	elems := precomputeElems(cfg, tasks)

	outs := make([]*taskOut, len(tasks))
	var done int64
	var wg sync.WaitGroup
	ch := make(chan int)
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range ch {
				outs[ti] = runTask(cfg, tasks[ti], elems)
				if cfg.Progress != nil {
					cfg.Progress(int(atomic.AddInt64(&done, 1)), len(tasks))
				}
			}
		}()
	}
	for i := range tasks {
		ch <- i
	}
	close(ch)
	wg.Wait()

	// Merge in task order: tasks are sorted width-ascending, so the
	// first witness kept per (op, domain, kind) is a minimal one.
	rep := &Report{}
	seen := make(map[[3]string]bool)
	for _, out := range outs {
		rep.Stats = append(rep.Stats, out.stats...)
		rep.Tuples += out.tuples
		rep.LintChecks += out.lintChecks
		for _, w := range out.findings {
			key := [3]string{w.Op, w.Domain, w.Kind}
			if !seen[key] {
				seen[key] = true
				rep.Findings = append(rep.Findings, w)
			}
		}
	}
	return rep
}

func buildTasks(cfg Config) []task {
	var variants []variant
	for _, op := range cfg.Ops {
		valid := op.ValidFlags()
		for f := ir.Flags(0); f < 8; f++ {
			if f&^valid == 0 {
				variants = append(variants, variant{op, f})
			}
		}
	}
	var tasks []task
	emit := func(t task) {
		for _, dom := range cfg.inputDomains() {
			if widthCapped(dom) && maxWidth(t.w, t.dstW) > cfg.MaxRangeWidth {
				continue
			}
			t.inDom = dom
			tasks = append(tasks, t)
		}
	}
	// Outer loop over the effective width keeps the task list sorted
	// width-ascending, so merged witnesses are minimal.
	for w := cfg.MinWidth; w <= cfg.MaxWidth; w++ {
		for _, v := range variants {
			switch {
			case v.op == ir.OpBSwap && w%8 != 0:
				// bswap only exists at byte-multiple widths, so it is
				// never sweepable at the ≤6-bit widths supported here.
			case v.op.IsCast():
				// Emit the cast pairs whose larger width is w.
				for small := uint(1); small < w; small++ {
					if v.op == ir.OpTrunc {
						emit(task{v: v, w: w, dstW: small})
					} else {
						emit(task{v: v, w: small, dstW: w})
					}
				}
			case v.op.HasBoolResult():
				emit(task{v: v, w: w, dstW: 1})
			default:
				emit(task{v: v, w: w, dstW: w})
			}
		}
	}
	return tasks
}

type elemKey struct {
	dom string
	w   uint
}

func precomputeElems(cfg Config, tasks []task) map[elemKey][]inElem {
	cache := make(map[elemKey][]inElem)
	for _, t := range tasks {
		for _, w := range t.operandWidths() {
			key := elemKey{t.inDom.Name(), w}
			if _, ok := cache[key]; ok {
				continue
			}
			var list []inElem
			t.inDom.Enum(w, func(e Elem) bool {
				vals := gammaList(t.inDom, w, e)
				if len(vals) == 0 {
					return true // bottom-like elements are not inputs
				}
				list = append(list, inElem{e: e, vals: vals, single: len(vals) == 1})
				return true
			})
			cache[key] = list
		}
	}
	return cache
}

func gammaList(d Domain, w uint, e Elem) []apint.Int {
	var out []apint.Int
	for x, max := uint64(0), uint64(1)<<w; x < max; x++ {
		if v := apint.New(w, x); d.Contains(e, v) {
			out = append(out, v)
		}
	}
	return out
}

type taskOut struct {
	stats      []Stat
	findings   []Witness
	tuples     uint64
	lintChecks uint64
}

var argNames = [3]string{"a", "b", "c"}

func runTask(cfg Config, t task, elems map[elemKey][]inElem) *taskOut {
	ws := t.operandWidths()
	arity := len(ws)
	lists := make([][]inElem, arity)
	for i, w := range ws {
		lists[i] = elems[elemKey{t.inDom.Name(), w}]
	}
	// Cap the tuple count by restricting trailing operands to singleton
	// and top elements; the first operand stays fully swept the longest.
	limited := false
	for j := arity - 1; j >= 0 && tupleCount(lists) > cfg.MaxTuples; j-- {
		lists[j] = restrictList(t.inDom, ws[j], lists[j])
		limited = true
	}

	tbl := buildTable(t, ws)
	outDoms := outputDomains(t.inDom)
	stats := make([]Stat, len(outDoms))
	for i, d := range outDoms {
		stats[i] = Stat{Op: t.v.String(), Width: t.widthLabel(), InDomain: t.inDom.Name(),
			Domain: d.Name(), Limited: limited}
	}
	out := &taskOut{}

	// Transfer domains are graded directly: no harness, no analyzer.
	td, _ := t.inDom.(TransferDomain)
	targs := make([]Elem, arity)

	idx := make([]int, arity)
	tuple := make([]inElem, arity)
	scratch := make([]apint.Int, 0, 64)
	for {
		for i := range idx {
			tuple[i] = lists[i][idx[i]]
		}
		var f *ir.Function
		var fa *llvmport.Facts
		var tgot Elem
		if td != nil {
			for i := range tuple {
				targs[i] = tuple[i].e
			}
			tgot = td.Transfer(t.v.op, t.v.flags, t.dstW, targs)
		} else {
			var inputs map[string]llvmport.AbsInput
			f, inputs = buildHarness(t, ws, tuple)
			fa = cfg.Analyzer.AnalyzeWithInputs(f, inputs)
		}
		image := concreteImage(tbl, ws, tuple)
		scratch = scratch[:0]
		for x := uint64(0); x < uint64(1)<<t.dstW; x++ {
			if image&(1<<x) != 0 {
				scratch = append(scratch, apint.New(t.dstW, x))
			}
		}
		out.tuples++
		for i, d := range outDoms {
			st := &stats[i]
			st.Tuples++
			if len(scratch) == 0 {
				st.Dead++
				continue
			}
			got := tgot
			if td == nil {
				got = outputFact(fa, t.dstW, d)
			}
			bad, unsound := escapee(d, got, scratch)
			if unsound {
				st.Unsound++
				if !hasWitness(out, t, d) {
					out.findings = append(out.findings, unsoundWitness(t, d, tuple, got, scratch, tbl, ws, bad))
				}
				continue
			}
			st.Sound++
			if d.Eq(got, d.Abstract(t.dstW, scratch)) {
				st.Precise++
			} else {
				st.Imprecise++
			}
		}
		// Lint only live tuples: when every concrete input is poison/UB
		// (empty image) the expression has no well-defined value, so
		// mutually contradictory facts are all vacuously sound — LLVM
		// really produces such fact sets for e.g. "add nuw 1, 1".
		// Transfer-domain tasks have no analyzer facts to lint against.
		if cfg.Lint && td == nil && len(scratch) > 0 {
			incons, n := CheckFactsDomains(f, fa, cfg.extraFacts(f))
			out.lintChecks += uint64(n)
			if len(incons) > 0 && !hasLintWitness(out, t) {
				out.findings = append(out.findings, Witness{
					Kind: "inconsistent", Op: t.v.String(), Width: t.widthLabel(),
					InDomain: t.inDom.Name(), Domain: "consistency",
					Inputs: formatInputs(t, tuple), Detail: incons[0].String(),
				})
			}
		}
		if !advance(idx, lists) {
			break
		}
	}
	out.stats = stats
	return out
}

func tupleCount(lists [][]inElem) uint64 {
	n := uint64(1)
	for _, l := range lists {
		n *= uint64(len(l))
	}
	return n
}

func restrictList(d Domain, w uint, list []inElem) []inElem {
	top := d.Top(w)
	out := list[:0:0]
	for _, e := range list {
		if e.single || d.Eq(e.e, top) {
			out = append(out, e)
		}
	}
	return out
}

func advance(idx []int, lists [][]inElem) bool {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < len(lists[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

func maxWidth(a, b uint) uint {
	if a > b {
		return a
	}
	return b
}

// buildTable enumerates the op's full concrete function: operand i
// occupies the i-th group of bits (lowest first) of the table index, and
// each entry holds the result value or -1 for UB/poison. The sweep runs
// on the bit-sliced evaluator, 64 table entries per evaluation.
func buildTable(t task, ws []uint) []int16 {
	b := ir.NewBuilder()
	args := make([]*ir.Inst, len(ws))
	var total uint
	for i, w := range ws {
		args[i] = b.Var(argNames[i], w)
		total += w
	}
	tbl := make([]int16, uint64(1)<<total)
	prog := eval.CompileSliced(b.Function(buildRoot(b, t, args)))
	lanes := uint64(prog.NumLanes())
	var vals [64]uint64
	for base := uint64(0); base < uint64(len(tbl)); base += 64 {
		planes, ok := prog.EvalIndexed(base)
		eval.Lanes(planes, ok, &vals)
		for l := uint64(0); l < lanes; l++ {
			if ok>>l&1 == 1 {
				tbl[base+l] = int16(vals[l])
			} else {
				tbl[base+l] = -1
			}
		}
	}
	return tbl
}

func buildRoot(b *ir.Builder, t task, args []*ir.Inst) *ir.Inst {
	if t.v.op.IsCast() {
		return b.BuildCast(t.v.op, t.dstW, args[0])
	}
	return b.Build(t.v.op, t.v.flags, args...)
}

// buildHarness builds the per-tuple expression: singleton abstract
// operands become literal constants (so the syntactic special cases of
// the ported transfer functions fire, matching how a compiler would see
// them), everything else a variable with the abstract fact injected.
func buildHarness(t task, ws []uint, tuple []inElem) (*ir.Function, map[string]llvmport.AbsInput) {
	b := ir.NewBuilder()
	args := make([]*ir.Inst, len(tuple))
	var inputs map[string]llvmport.AbsInput
	for i, e := range tuple {
		if e.single {
			args[i] = b.Const(e.vals[0])
			continue
		}
		args[i] = b.Var(argNames[i], ws[i])
		in := llvmport.TopInput(ws[i])
		switch t.inDom {
		case KnownBits:
			in.Known = e.e.(knownbits.Bits)
		case IntegerRange:
			in.Range = e.e.(constrange.Range)
		case SignBits:
			in.SignBits = e.e.(SignCount).N
		}
		if inputs == nil {
			inputs = make(map[string]llvmport.AbsInput, len(tuple))
		}
		inputs[argNames[i]] = in
	}
	return b.Function(buildRoot(b, t, args)), inputs
}

func concreteImage(tbl []int16, ws []uint, tuple []inElem) uint64 {
	var image uint64
	switch len(tuple) {
	case 1:
		for _, v0 := range tuple[0].vals {
			if r := tbl[v0.Uint64()]; r >= 0 {
				image |= 1 << uint(r)
			}
		}
	case 2:
		for _, v0 := range tuple[0].vals {
			i0 := v0.Uint64()
			for _, v1 := range tuple[1].vals {
				if r := tbl[i0|v1.Uint64()<<ws[0]]; r >= 0 {
					image |= 1 << uint(r)
				}
			}
		}
	case 3:
		for _, v0 := range tuple[0].vals {
			i0 := v0.Uint64()
			for _, v1 := range tuple[1].vals {
				i1 := i0 | v1.Uint64()<<ws[0]
				for _, v2 := range tuple[2].vals {
					if r := tbl[i1|v2.Uint64()<<(ws[0]+ws[1])]; r >= 0 {
						image |= 1 << uint(r)
					}
				}
			}
		}
	}
	return image
}

func outputFact(fa *llvmport.Facts, dstW uint, d Domain) Elem {
	// Switch on the name: the predicate domains carry a func field and
	// are not comparable as interface values.
	switch d.Name() {
	case KnownBits.Name():
		return fa.KnownBits()
	case IntegerRange.Name():
		return fa.Range()
	case SignBits.Name():
		return SignCount{W: dstW, N: fa.NumSignBits()}
	case NonZero.Name():
		return fa.NonZero()
	case Negative.Name():
		return fa.Negative()
	case NonNegative.Name():
		return fa.NonNegative()
	case PowerOfTwo.Name():
		return fa.PowerOfTwo()
	}
	panic("absint: unknown output domain")
}

// escapee returns a concrete image value outside γ(got), if any.
func escapee(d Domain, got Elem, image []apint.Int) (apint.Int, bool) {
	for _, v := range image {
		if !d.Contains(got, v) {
			return v, true
		}
	}
	return apint.Int{}, false
}

func hasWitness(out *taskOut, t task, d Domain) bool {
	for _, w := range out.findings {
		if w.Kind == "unsound" && w.Op == t.v.String() && w.Domain == d.Name() {
			return true
		}
	}
	return false
}

func hasLintWitness(out *taskOut, t task) bool {
	for _, w := range out.findings {
		if w.Kind == "inconsistent" && w.Op == t.v.String() {
			return true
		}
	}
	return false
}

func formatInputs(t task, tuple []inElem) []string {
	out := make([]string, len(tuple))
	for i, e := range tuple {
		if e.single {
			out[i] = fmt.Sprintf("%s = const %s", argNames[i], e.vals[0])
		} else {
			out[i] = fmt.Sprintf("%s = %s", argNames[i], t.inDom.Format(e.e))
		}
	}
	return out
}

func unsoundWitness(t task, d Domain, tuple []inElem, got Elem, image []apint.Int, tbl []int16, ws []uint, bad apint.Int) Witness {
	w := Witness{
		Kind: "unsound", Op: t.v.String(), Width: t.widthLabel(),
		InDomain: t.inDom.Name(), Domain: d.Name(),
		Inputs: formatInputs(t, tuple),
		Got:    d.Format(got),
		Want:   d.Format(d.Abstract(t.dstW, image)),
	}
	// Rescan the concrete product for an input tuple that produces the
	// escaping value.
	target := int16(bad.Uint64())
	var rec func(i int, packed uint64, off uint, ins []string) bool
	rec = func(i int, packed uint64, off uint, ins []string) bool {
		if i == len(tuple) {
			if tbl[packed] == target {
				w.ConcreteIn = append([]string(nil), ins...)
				w.ConcreteOut = bad.String()
				return true
			}
			return false
		}
		for _, v := range tuple[i].vals {
			if rec(i+1, packed|v.Uint64()<<off, off+ws[i], append(ins, fmt.Sprintf("%s=%s", argNames[i], v))) {
				return true
			}
		}
		return false
	}
	rec(0, 0, 0, nil)
	return w
}

// Summary renders per-output-domain aggregate totals.
func (r *Report) Summary() string {
	type agg struct {
		tuples, sound, precise, imprecise, unsound, dead uint64
	}
	byDom := map[string]*agg{}
	var order []string
	for _, st := range r.Stats {
		a := byDom[st.Domain]
		if a == nil {
			a = &agg{}
			byDom[st.Domain] = a
			order = append(order, st.Domain)
		}
		a.tuples += st.Tuples
		a.sound += st.Sound
		a.precise += st.Precise
		a.imprecise += st.Imprecise
		a.unsound += st.Unsound
		a.dead += st.Dead
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s %10s %8s\n",
		"DOMAIN", "TUPLES", "SOUND", "PRECISE", "IMPRECISE", "UNSOUND", "DEAD")
	for _, name := range order {
		a := byDom[name]
		fmt.Fprintf(&b, "%-14s %12d %12d %12d %12d %10d %8d\n",
			name, a.tuples, a.sound, a.precise, a.imprecise, a.unsound, a.dead)
	}
	fmt.Fprintf(&b, "total graded tuples: %d", r.Tuples)
	if r.LintChecks > 0 {
		fmt.Fprintf(&b, "; consistency checks: %d", r.LintChecks)
	}
	b.WriteString("\n")
	return b.String()
}

// OpTable renders the per-op table the sweep is named for: one row per
// (op variant, output domain), aggregated over widths and input domains.
func (r *Report) OpTable() string {
	type key struct{ op, dom string }
	type agg struct {
		tuples, precise, imprecise, unsound uint64
		limited                             bool
	}
	rows := map[key]*agg{}
	var order []key
	for _, st := range r.Stats {
		k := key{st.Op, st.Domain}
		a := rows[k]
		if a == nil {
			a = &agg{}
			rows[k] = a
			order = append(order, k)
		}
		a.tuples += st.Tuples
		a.precise += st.Precise
		a.imprecise += st.Imprecise
		a.unsound += st.Unsound
		a.limited = a.limited || st.Limited
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].op != order[j].op {
			return order[i].op < order[j].op
		}
		return order[i].dom < order[j].dom
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-14s %10s %10s %10s %8s\n",
		"OP", "DOMAIN", "TUPLES", "PRECISE", "IMPRECISE", "UNSOUND")
	for _, k := range order {
		a := rows[k]
		note := ""
		if a.limited {
			note = " *"
		}
		fmt.Fprintf(&b, "%-18s %-14s %10d %10d %10d %8d%s\n",
			k.op, k.dom, a.tuples, a.precise, a.imprecise, a.unsound, note)
	}
	b.WriteString("(* = tuple budget hit; some operands restricted to constants and top)\n")
	return b.String()
}
