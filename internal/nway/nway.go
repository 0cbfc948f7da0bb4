// Package nway implements N-way differential testing of the analyzer
// implementations (Klinger et al., "Differentially Testing Soundness and
// Precision of Program Analyzers"): every registered variant computes its
// dataflow facts for the same expression, the facts are cross-checked
// pairwise per domain using the internal/absint lattice ordering, and
// only expressions on which some pair disagrees need the SAT oracle at
// all. Agreement is the overwhelmingly common case, so the pairwise check
// is a cheap pre-filter in front of the solver; facts with an empty
// intersection — or a claim strictly stronger than exhaustively computed
// exact facts — are soundness findings in their own right, established
// without a single solver query.
//
// Three implementations exist per Table 1 domain: the LLVM-8 port under
// test (possibly bug-injected), the trusted Modern analyzer, and the
// absint-derived best transformers (exact facts by bit-sliced input
// enumeration on small input spaces, per-instruction best transfer
// functions under an enumeration budget above them). The self-contained
// transfer domains (tnum, stride) add a fourth variant: their abstract
// interpreters claim facts in those domains only, cross-checked against
// the exact variant's α of the achievable value set.
package nway

import (
	"fmt"

	"dfcheck/internal/absint"
	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/stride"
	"dfcheck/internal/tnum"
)

// Facts is one variant's view of an expression's root value across the
// forward domains of Table 1 (demanded bits is a backward analysis with a
// single implementation and is not cross-checked).
type Facts struct {
	Known knownbits.Bits
	Sign  uint
	Range constrange.Range

	NonZero, Negative, NonNegative, PowerOfTwo bool

	// Tnum and Stride are the transfer-domain facts, claimed only when
	// HasTnum/HasStride is set: most variants implement neither domain.
	// Their cross-check is contradiction-only — the oracle has no tnum or
	// stride implementation, so a mere precision gap escalates nothing.
	Tnum      knownbits.Bits
	Stride    stride.S
	HasTnum   bool
	HasStride bool

	// Exact marks facts obtained by exhaustive enumeration of the input
	// space: the maximally precise sound facts. Any strictly stronger
	// claim by another variant is then a contradiction, not extra
	// precision — including a false predicate, which under Exact is a
	// refutation rather than a failure to prove.
	Exact bool

	// AbstainKnown/AbstainSign/AbstainRange mark domains the variant
	// makes no claim about (the best-transformer variant falls back to
	// top under its enumeration budget). An abstained domain neither
	// agrees nor disagrees, so a budget fallback never forces an oracle
	// escalation the way a genuine top claim from a real analyzer does.
	AbstainKnown, AbstainSign, AbstainRange bool

	// PredsPartial marks predicate values where false means "no claim"
	// rather than "refuted": the non-exact best variant only derives
	// positive predicate facts, so its false values are skipped.
	PredsPartial bool

	// Dead is set when the variant proved the expression has no
	// well-defined input; every fact about it is then vacuous and the
	// expression is not cross-checked.
	Dead bool
}

// Variant is one registered analyzer implementation.
type Variant struct {
	Name  string
	Facts func(f *ir.Function) Facts
}

// Variants returns the implementations cross-checked in n-way mode: the
// analyzer under test, the trusted Modern analyzer (skipped when it is
// the analyzer under test), the absint-derived best transformers, and
// the transfer-domain interpreter (tnum and stride facts only).
func Variants(under *llvmport.Analyzer) []Variant {
	var u llvmport.Analyzer
	if under != nil {
		u = *under
	}
	vs := []Variant{{Name: "under-test", Facts: analyzerFacts(u)}}
	if trusted := (llvmport.Analyzer{Modern: true}); u != trusted {
		vs = append(vs, Variant{Name: "modern", Facts: analyzerFacts(trusted)})
	}
	return append(vs,
		Variant{Name: "absint-best", Facts: Best{}.Facts},
		Variant{Name: "domain-interp", Facts: DomainInterp{}.Facts})
}

// DomainInterp is the transfer-domain variant: it abstract-interprets
// the expression under the self-contained tnum and stride suites
// (possibly bug-seeded, for testing the tester) and claims facts in
// those two domains only. Every Table 1 domain is abstained from, so
// the variant adds reduced-product coverage without ever forcing an
// oracle escalation by itself.
type DomainInterp struct {
	Tnum   tnum.Analysis
	Stride stride.Analysis
}

// Facts interprets f and reports the root's tnum and stride elements. A
// bottom root means the interpreter proved no execution of f is
// well-defined, which makes every fact vacuous — the expression is
// flagged dead, like the exact variant does on an empty image.
func (di DomainInterp) Facts(f *ir.Function) Facts {
	t := di.Tnum.Analyze(f)[f.Root]
	s := di.Stride.Analyze(f)[f.Root]
	if t.HasConflict() || s.Empty {
		return Facts{Dead: true}
	}
	return Facts{
		Tnum:         t,
		Stride:       s,
		HasTnum:      true,
		HasStride:    true,
		Sign:         1,
		AbstainKnown: true,
		AbstainSign:  true,
		AbstainRange: true,
		PredsPartial: true,
	}
}

func analyzerFacts(an llvmport.Analyzer) func(*ir.Function) Facts {
	return func(f *ir.Function) Facts {
		fa := an.Analyze(f)
		return Facts{
			Known:       fa.KnownBits(),
			Sign:        fa.NumSignBits(),
			Range:       fa.Range(),
			NonZero:     fa.NonZero(),
			Negative:    fa.Negative(),
			NonNegative: fa.NonNegative(),
			PowerOfTwo:  fa.PowerOfTwo(),
		}
	}
}

// Contradiction is a pair of claims that cannot both be sound: their
// concretizations have an empty intersection, or one is strictly more
// precise than exhaustively computed exact facts. At least one of the two
// variants has an unsound transfer function (on a live expression).
type Contradiction struct {
	Analysis     harvest.Analysis
	A, B         string // variant names
	AFact, BFact string
}

// Comparison is the pairwise cross-check of all variants' facts for one
// expression.
type Comparison struct {
	// Checks counts the per-domain pairwise comparisons performed;
	// Disagreements counts those whose facts were not equivalent.
	Checks        int
	Disagreements int
	// Contradictions are disagreements no pair of sound analyzers could
	// produce (see Contradiction).
	Contradictions []Contradiction
	// Dead is set when a variant proved the expression has no
	// well-defined input: nothing is cross-checked, and there is nothing
	// for the oracle to decide either.
	Dead bool
}

// Escalate reports whether the expression needs the oracle: some pair of
// variants disagreed, so at least one of them is imprecise or unsound and
// only the maximally precise oracle can tell which.
func (c Comparison) Escalate() bool { return c.Disagreements > 0 }

// Compare evaluates every variant on f and cross-checks the resulting
// facts pairwise per domain.
func Compare(f *ir.Function, variants []Variant) Comparison {
	fs := make([]Facts, len(variants))
	for i, v := range variants {
		fs[i] = v.Facts(f)
		if fs[i].Dead {
			return Comparison{Dead: true}
		}
	}
	var cmp Comparison
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			cmp.comparePair(variants[i].Name, fs[i], variants[j].Name, fs[j])
		}
	}
	return cmp
}

// comparePair cross-checks one pair of fact sets domain by domain.
func (c *Comparison) comparePair(na string, a Facts, nb string, b Facts) {
	contradict := func(an harvest.Analysis, fa, fb string) {
		c.Contradictions = append(c.Contradictions, Contradiction{
			Analysis: an, A: na, B: nb, AFact: fa, BFact: fb})
	}

	if !a.AbstainKnown && !b.AbstainKnown {
		c.Checks++
		ka, kb := a.Known, b.Known
		switch {
		case ka.Eq(kb):
		default:
			c.Disagreements++
			// An exact fact set is at least as precise as (and consistent
			// with) every sound claim; a bare conflict between two
			// non-exact claims is equally fatal.
			switch {
			case ka.Meet(kb).HasConflict(),
				a.Exact && !ka.AtLeastAsPreciseAs(kb),
				b.Exact && !kb.AtLeastAsPreciseAs(ka):
				contradict(harvest.KnownBits, ka.String(), kb.String())
			}
		}
	}

	if !a.AbstainSign && !b.AbstainSign {
		c.Checks++
		if a.Sign != b.Sign {
			c.Disagreements++
			if (a.Exact && b.Sign > a.Sign) || (b.Exact && a.Sign > b.Sign) {
				contradict(harvest.SignBits, fmt.Sprint(a.Sign), fmt.Sprint(b.Sign))
			}
		}
	}

	if !a.AbstainRange && !b.AbstainRange {
		c.Checks++
		ra, rb := a.Range, b.Range
		switch {
		case ra.Eq(rb):
		case ra.Intersect(rb).IsEmpty(),
			a.Exact && rb.SizeLT(ra), // smaller than the minimal cover
			b.Exact && ra.SizeLT(rb):
			c.Disagreements++
			contradict(harvest.IntegerRange, ra.String(), rb.String())
		case !ra.SizeLT(rb) && !rb.SizeLT(ra):
			// Equal-size different sets are both minimal covers of some
			// value set — the same equivalence compareRange uses.
		default:
			c.Disagreements++
		}
	}

	// The transfer domains are contradiction-only: there is no oracle to
	// escalate a precision gap to, so differing-but-compatible claims
	// neither agree nor disagree. A disjoint meet is fatal outright, and
	// so is any claim the exact α is not below — the domains are Moore
	// families (meets are exact), so α of the achievable set is below
	// every sound claim.
	if a.HasTnum && b.HasTnum {
		c.Checks++
		ta, tb := a.Tnum, b.Tnum
		switch {
		case ta.Eq(tb):
		case ta.Meet(tb).HasConflict(),
			a.Exact && !ta.AtLeastAsPreciseAs(tb),
			b.Exact && !tb.AtLeastAsPreciseAs(ta):
			c.Disagreements++
			contradict(harvest.Tnum, ta.String(), tb.String())
		}
	}
	if a.HasStride && b.HasStride {
		c.Checks++
		sa, sb := a.Stride, b.Stride
		switch {
		case sa.Eq(sb):
		case sa.Meet(sb).Empty,
			a.Exact && !sa.Leq(sb),
			b.Exact && !sb.Leq(sa):
			c.Disagreements++
			contradict(harvest.Stride, sa.String(), sb.String())
		}
	}

	preds := [4]struct {
		an     harvest.Analysis
		av, bv bool
	}{
		{harvest.NonZero, a.NonZero, b.NonZero},
		{harvest.Negative, a.Negative, b.Negative},
		{harvest.NonNegative, a.NonNegative, b.NonNegative},
		{harvest.PowerOfTwo, a.PowerOfTwo, b.PowerOfTwo},
	}
	for _, p := range preds {
		if (a.PredsPartial && !p.av) || (b.PredsPartial && !p.bv) {
			continue // an unproved predicate from a partial variant claims nothing
		}
		c.Checks++
		if p.av == p.bv {
			continue
		}
		c.Disagreements++
		if (a.Exact && !p.av) || (b.Exact && !p.bv) {
			contradict(p.an, fmt.Sprint(p.av), fmt.Sprint(p.bv))
		}
	}
}

// DefaultExactBits is the summed input width at or below which the best
// variant enumerates the whole input space (bit-sliced, 64 lanes at a
// time) and reports exact facts. It matches solver.DefaultEnumCutoff.
const DefaultExactBits = 14

// DefaultOpBudget caps the operand-tuple enumeration per instruction for
// the per-instruction best transformers used above DefaultExactBits.
const DefaultOpBudget = 4096

// Best is the absint-derived best-transformer variant: exact facts by
// exhaustive enumeration when the input space is small, per-instruction
// best abstract transformers (α ∘ op ∘ γ, computed by enumeration under
// OpBudget with a sound fall-back to top) otherwise.
type Best struct {
	// ExactBits overrides DefaultExactBits (0 selects the default).
	ExactBits uint
	// OpBudget overrides DefaultOpBudget (0 selects the default).
	OpBudget int
}

// Facts computes the best variant's fact set for f.
func (bst Best) Facts(f *ir.Function) Facts {
	exactBits := bst.ExactBits
	if exactBits == 0 {
		exactBits = DefaultExactBits
	}
	if eval.TotalInputBits(f) <= exactBits {
		return exactFacts(f)
	}
	budget := bst.OpBudget
	if budget == 0 {
		budget = DefaultOpBudget
	}
	return aiFacts(f, budget)
}

// exactFacts sweeps the entire input space with the bit-sliced evaluator
// and abstracts the set of achievable root values in every domain: the
// maximally precise facts, computed solver-free. The sweep returns the
// values ascending, so the range α takes them without a sort.
func exactFacts(f *ir.Function) Facts {
	w := f.Width()
	raw, _, _ := eval.CompileSliced(f).Outputs(true, nil)
	if len(raw) == 0 {
		return Facts{Dead: true, Exact: true}
	}
	vals := make([]apint.Int, len(raw))
	for i, v := range raw {
		vals[i] = apint.New(w, v)
	}
	// Tnums are the known-bits lattice, so one α serves both claims.
	k := knownbits.Abstract(w, vals)
	return Facts{
		Known:       k,
		Sign:        absint.SignBits.Abstract(w, vals).(absint.SignCount).N,
		Range:       constrange.AbstractSorted(w, raw),
		NonZero:     absint.NonZero.Abstract(w, vals).(bool),
		Negative:    absint.Negative.Abstract(w, vals).(bool),
		NonNegative: absint.NonNegative.Abstract(w, vals).(bool),
		PowerOfTwo:  absint.PowerOfTwo.Abstract(w, vals).(bool),
		Tnum:        k,
		Stride:      stride.Abstract(w, vals),
		HasTnum:     true,
		HasStride:   true,
		Exact:       true,
	}
}

// aiFacts abstract-interprets the DAG with per-instruction best
// transformers in the known-bits and range domains, then derives the
// remaining facts from the root elements by sound entailment. Domains
// where nothing beyond top was established are abstained from rather
// than claimed.
func aiFacts(f *ir.Function, budget int) Facts {
	k := interpret(f, absint.KnownBits, budget)[f.Root].(knownbits.Bits)
	r := interpret(f, absint.IntegerRange, budget)[f.Root].(constrange.Range)
	if k.HasConflict() || r.IsEmpty() {
		// An empty best-transformer image over top inputs means no
		// execution of the expression is well-defined.
		return Facts{Dead: true}
	}
	w := f.Width()
	fx := Facts{
		Known:        k,
		Range:        r,
		Sign:         1,
		AbstainKnown: k.IsUnknown(),
		AbstainRange: r.IsFull(),
		AbstainSign:  true, // sign-bit γ sets are too large to enumerate
		PredsPartial: true,
	}
	nonneg := constrange.NonEmpty(apint.Zero(w), apint.MinSigned(w))
	neg := constrange.NonEmpty(apint.MinSigned(w), apint.Zero(w))
	fx.NonZero = !k.UMin().IsZero() || !r.Contains(apint.Zero(w))
	fx.Negative = k.IsNegative() || r.Intersect(nonneg).IsEmpty()
	fx.NonNegative = k.IsNonNegative() || r.Intersect(neg).IsEmpty()
	fx.PowerOfTwo = k.IsConstant() && k.Constant().PopCount() == 1
	return fx
}

// interpret runs the per-instruction best-transformer abstract
// interpretation of f in one domain, returning the element computed for
// every instruction.
func interpret(f *ir.Function, d absint.Domain, budget int) map[*ir.Inst]absint.Elem {
	elems := make(map[*ir.Inst]absint.Elem)
	isRange := d.Name() == absint.IntegerRange.Name()
	for _, n := range f.Insts() {
		switch {
		case n.IsConst():
			elems[n] = d.Abstract(n.Width, []apint.Int{n.Val})
		case n.IsVar():
			if n.HasRange && isRange {
				elems[n] = constrange.NonEmpty(n.Lo, n.Hi)
			} else {
				elems[n] = d.Top(n.Width)
			}
		default:
			elems[n] = bestTransfer(d, n, elems, budget)
		}
	}
	return elems
}

// bestTransfer computes α(op(γ(operand elements))) for one instruction by
// enumerating the operand concretizations, provided their product fits
// the budget; otherwise it soundly falls back to top. Duplicate operands
// share one enumeration variable, so x op x stays correlated. An empty
// image (every tuple hits UB/poison) is bottom: no well-defined execution
// reaches past this instruction.
func bestTransfer(d absint.Domain, n *ir.Inst, elems map[*ir.Inst]absint.Elem, budget int) absint.Elem {
	var ops []*ir.Inst
	for _, a := range n.Args {
		dup := false
		for _, o := range ops {
			dup = dup || o == a
		}
		if !dup {
			ops = append(ops, a)
		}
	}
	prod := 1
	for _, o := range ops {
		if d.IsBottom(elems[o]) {
			return d.Bottom(n.Width)
		}
		sz := gammaSize(d, elems[o])
		if sz <= 0 || prod > budget/sz {
			return d.Top(n.Width)
		}
		prod *= sz
	}

	b := ir.NewBuilder()
	vars := make([]*ir.Inst, len(ops))
	for i, o := range ops {
		vars[i] = b.Var(fmt.Sprintf("x%d", i), o.Width)
	}
	args := make([]*ir.Inst, len(n.Args))
	for i, a := range n.Args {
		for j, o := range ops {
			if o == a {
				args[i] = vars[j]
			}
		}
	}
	var root *ir.Inst
	if n.Op.IsCast() {
		root = b.BuildCast(n.Op, n.Width, args[0])
	} else {
		root = b.Build(n.Op, n.Flags, args...)
	}
	prog := eval.Compile(b.Function(root))

	env := make(eval.Env, len(vars))
	var outs []apint.Int
	var walk func(i int)
	walk = func(i int) {
		if i == len(ops) {
			if v, ok := prog.Eval(env); ok {
				outs = append(outs, v)
			}
			return
		}
		forEachGamma(d, elems[ops[i]], func(v apint.Int) {
			env[vars[i]] = v
			walk(i + 1)
		})
	}
	walk(0)
	if len(outs) == 0 {
		return d.Bottom(n.Width)
	}
	// Every α is order-free and ignores repeats, so the outputs go in as
	// the walk produced them.
	return d.Abstract(n.Width, outs)
}

// gammaSize returns |γ(e)| for the two interpreted domains, or -1 when it
// does not fit an int budget comparison.
func gammaSize(d absint.Domain, e absint.Elem) int {
	switch v := e.(type) {
	case knownbits.Bits:
		unknown := v.Width() - v.NumKnown()
		if unknown >= 31 {
			return -1
		}
		return 1 << unknown
	case constrange.Range:
		n, huge := v.Size()
		if huge || n > 1<<30 {
			return -1
		}
		return int(n)
	}
	panic(fmt.Sprintf("nway: gammaSize on unsupported domain %s", d.Name()))
}

func forEachGamma(d absint.Domain, e absint.Elem, fn func(v apint.Int)) {
	switch v := e.(type) {
	case knownbits.Bits:
		v.ForEach(func(x apint.Int) bool { fn(x); return true })
	case constrange.Range:
		v.ForEach(func(x apint.Int) bool { fn(x); return true })
	default:
		panic(fmt.Sprintf("nway: forEachGamma on unsupported domain %s", d.Name()))
	}
}
