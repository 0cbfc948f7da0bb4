// Package compare implements the pipeline of the paper's Figure 1: run
// the LLVM-port analyses and the solver-based oracle over the same
// expression and classify each result pair as equal precision, oracle
// more precise (an LLVM imprecision), or LLVM more precise (an LLVM
// soundness bug, since the oracle is maximally precise), with resource
// exhaustion tracked separately — exactly the categories of Table 1.
package compare

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/apint"
	"dfcheck/internal/canon"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/nway"
	"dfcheck/internal/oracle"
	"dfcheck/internal/reduce"
	"dfcheck/internal/rescache"
	"dfcheck/internal/solver"
	"dfcheck/internal/trace"
)

// Outcome classifies one (expression, analysis) comparison.
type Outcome int

// Outcomes, in Table 1 column order. Inconsistent sits outside the
// table: it is produced by the solver-free cross-domain lint, not by an
// oracle comparison.
const (
	Same Outcome = iota
	OracleMorePrecise
	LLVMMorePrecise // a soundness bug in the compiler under test
	ResourceExhausted
	// Inconsistent marks a contradiction between two of the compiler's
	// own domains on the same live value (reduced-product check): at
	// least one transfer function is unsound, detected with zero solver
	// queries.
	Inconsistent
	// VariantsContradict marks two analyzer variants whose facts for the
	// same live value cannot both be sound (n-way differential mode): the
	// concretizations are disjoint, or one claim is strictly stronger
	// than exhaustively computed exact facts. Like Inconsistent, it is
	// established without any solver query.
	VariantsContradict
)

func (o Outcome) String() string {
	switch o {
	case Same:
		return "same precision"
	case OracleMorePrecise:
		return "souper is more precise"
	case LLVMMorePrecise:
		return "llvm is stronger"
	case ResourceExhausted:
		return "resource exhaustion"
	case Inconsistent:
		return "inconsistent domains"
	case VariantsContradict:
		return "variants contradict"
	}
	return "unknown"
}

// ConsistencyAnalysis labels results produced by the cross-domain
// consistency lint; it is not a Table 1 analysis.
const ConsistencyAnalysis harvest.Analysis = "consistency"

// Result is one comparison: the outcome and both facts rendered the way
// the paper prints them.
type Result struct {
	Analysis harvest.Analysis `json:"analysis"`
	Outcome  Outcome          `json:"-"`
	// Var is set for demanded-bits results (one per input variable).
	Var        string `json:"var,omitempty"`
	OracleFact string `json:"oracle_fact"`
	LLVMFact   string `json:"llvm_fact"`
	// Elapsed is the oracle computation time attributed to this result
	// (for demanded bits, the whole per-expression time is attributed to
	// the first variable's entry). Cache hits replay the time the
	// original computation took, keeping cached reports deterministic.
	Elapsed time.Duration `json:"-"`
}

// Comparator runs the oracle against a (possibly bug-injected) LLVM port.
type Comparator struct {
	Analyzer *llvmport.Analyzer
	// Budget is the solver conflict budget of one expression, shared by
	// all the queries of its eight analyses (0 selects
	// solver.DefaultConflictBudget), standing in for the paper's
	// 30-second Z3 timeout.
	Budget int64
	// Workers sets the number of expressions compared concurrently by
	// RunBatches, and so by Run and by campaigns (the paper spread its
	// evaluation across several machines; expressions are independent).
	// 0 or 1 means one at a time.
	Workers int
	// ExprTimeout caps the total oracle time per expression; queries
	// beyond it come back as resource exhaustion, like the paper's
	// five-minute cap (§4.1). Zero means no cap.
	ExprTimeout time.Duration
	// Cache, when set, memoizes oracle results per (canonical expression,
	// analysis): every expression is canonicalized (internal/canon), so
	// alpha-variants — renamed inputs, reordered commutative operands —
	// share entries within a run and, if the cache is persisted, across
	// runs. This exploits the §3.1 duplication statistics the way the
	// original artifact's Redis store did. Reports are the same with or
	// without it.
	Cache *rescache.Cache
	// Metrics, when set, is instrumented with solver query counters,
	// per-expression latency histograms, worker utilization, cache
	// traffic, and finding counts — the observability a long unattended
	// campaign needs. Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
	// Tracer, when set, records a hierarchical span per run, expression,
	// analysis, oracle iteration, and solver query (the -trace flag).
	// Nil compiles to the untraced near-zero-cost path.
	Tracer *trace.Tracer
	// Consistency additionally runs the solver-free cross-domain lint
	// (internal/absint.CheckFacts) on every analyzed expression:
	// contradictions between the compiler's own domains surface as
	// Inconsistent findings without costing a single oracle query.
	Consistency bool
	// Domains widens the consistency lint's reduced product with the
	// self-contained transfer domains listed here (absint.Tnums,
	// absint.Strides — parse names with absint.TransferDomainsByNames): their
	// abstract interpreters run per expression and their facts join the
	// tnum×known-bits, tnum×range, and stride×range contradiction
	// checks. Nil keeps the classic four-domain lint; the Table 1 oracle
	// comparison is unaffected either way.
	Domains []absint.Domain
	// NWay switches on the n-way differential pre-filter (internal/nway):
	// every registered analyzer variant computes its facts, the facts are
	// cross-checked pairwise per domain, and the oracle runs only on
	// expressions where some pair disagrees. Contradictory pairs surface
	// as VariantsContradict findings; agreeing expressions skip the
	// oracle entirely, so Table 1 rows cover escalated expressions only
	// (Report.NWay accounts for the rest).
	NWay bool
	// Reduce shrinks every finding to a 1-minimal expression preserving
	// its finding kind (internal/reduce) and attaches the reduced source
	// to the finding. Reduction re-runs the finding's check (oracle
	// comparison, n-way cross-check, or consistency lint) per candidate,
	// so it costs time proportional to finding count, not corpus size.
	Reduce bool

	// flight collapses identical in-flight oracle work behind the cache,
	// per rescache key, across the worker pool and across concurrent
	// callers sharing this Comparator (a campaign and the fact service):
	// the cache answers queries that finished, the flight answers
	// queries that are still running. Waiters count into the
	// flight_collapsed metric and adopt the leader's result like a cache
	// hit, so the report is unchanged. It is used only with a cache,
	// and it is the only dedup the fact service's queries pass through.
	flight group
	// flightHook, when set, runs at the start of every flight leader's
	// computation. Tests use it to hold the leader until all expected
	// waiters have attached, making collapse counts deterministic.
	flightHook func()
}

// analysisOrder maps oracleSet.Elapsed indices to analysis names, in the
// Table 1 order oracleFor runs them.
var analysisOrder = [8]harvest.Analysis{
	harvest.KnownBits, harvest.SignBits, harvest.NonZero, harvest.Negative,
	harvest.NonNegative, harvest.PowerOfTwo, harvest.IntegerRange, harvest.DemandedBits,
}

// rootSpan returns ctx carrying the span this run's expression spans nest
// under: the span already in ctx (a campaign batch), else a fresh root on
// the configured tracer. The returned func ends the span only when it was
// opened here.
func (c *Comparator) rootSpan(ctx context.Context, name string) (context.Context, func()) {
	if trace.FromContext(ctx) != nil {
		return ctx, func() {}
	}
	sp := c.Tracer.Start(nil, trace.KindBatch, name)
	if sp == nil {
		return ctx, func() {}
	}
	return trace.NewContext(ctx, sp), sp.End
}

// exprSpan opens the per-expression span, named by the root opcode and
// carrying the width and canonical hash/key that let trace-report group
// hotspots and collapse duplicates. The canonicalization is paid only
// when tracing is live.
func (c *Comparator) exprSpan(ctx context.Context, f *ir.Function, cn *canon.Canon) *trace.Span {
	sp := trace.FromContext(ctx).Child(trace.KindExpr, f.Root.Op.String())
	if sp == nil {
		return nil
	}
	if cn == nil {
		cn = canon.Canonicalize(f)
	}
	sp.SetInt("width", int64(f.Width()))
	sp.SetStr("hash", fmt.Sprintf("%016x", cn.Hash))
	sp.SetStr("key", cn.Key)
	return sp
}

// endExprSpan closes an expression span, stamping the solver totals the
// expression cost.
func endExprSpan(sp *trace.Span, st solver.Stats) {
	if sp == nil {
		return
	}
	sp.SetInt("queries", st.Queries)
	sp.SetInt("conflicts", st.Conflicts)
	sp.SetInt("exhausted", st.Exhausted)
	sp.End()
}

// newEngine builds an engine honoring the per-expression deadline and the
// run's cancellation context; small expressions get the enumeration fast
// path, everything else the SAT engine.
func (c *Comparator) newEngine(ctx context.Context, f *ir.Function, deadline time.Time) solver.Engine {
	if ctx == context.Background() {
		ctx = nil
	}
	return solver.NewEngine(f, solver.Config{Budget: c.Budget, Deadline: deadline, Ctx: ctx})
}

// recordCompared rolls the per-expression metrics of the compared
// expressions into the registry: the oracle runs' solver work and
// latencies, the n-way pre-filter's outcomes and the lint's checks,
// summed first so that each counter takes one add. RunBatches records a
// batch's expressions only if the batch is kept (recordReport); the
// direct paths, CompareExprContext and OracleFacts, record each one as
// it finishes. nil entries, expressions never compared, are skipped.
func (c *Comparator) recordCompared(cmps []*compared) {
	if c.Metrics == nil {
		return
	}
	var st solver.Stats
	var nw NWayStats
	var oracles, checks int64
	linted := false
	for _, cmp := range cmps {
		if cmp == nil {
			continue
		}
		if o := cmp.oracle; o != nil {
			oracles++
			st.Add(o.Solver)
			var total time.Duration
			for _, d := range o.Elapsed {
				total += d
			}
			c.Metrics.Histogram("expr_latency").Observe(total)
			// The outcome split separates expressions the solver budget
			// covered from ones it exhausted — the saturated tail would
			// otherwise hide inside the bare expr_latency histogram.
			outcome := "solved"
			if o.Solver.Exhausted > 0 {
				outcome = "exhausted"
			}
			c.Metrics.HistogramL("expr_latency", metrics.Labels{"outcome": outcome}).Observe(total)
		}
		nw.add(cmp.nway)
		checks += int64(cmp.checks)
		linted = linted || cmp.linted
	}
	if oracles > 0 {
		c.Metrics.Counter("exprs_compared").Add(oracles)
		c.Metrics.Counter("solver_queries").Add(st.Queries)
		c.Metrics.Counter("solver_conflicts").Add(st.Conflicts)
		c.Metrics.Counter("solver_propagations").Add(st.Propagations)
		c.Metrics.Counter("solver_decisions").Add(st.Decisions)
		c.Metrics.Counter("solver_restarts").Add(st.Restarts)
		c.Metrics.Counter("solver_learned").Add(st.Learned)
		c.Metrics.Counter("solver_exhausted").Add(st.Exhausted)
		c.Metrics.Counter("solver_pruned_queries").Add(st.Pruned)
		c.Metrics.Counter("solver_enum_queries").Add(st.EnumQueries)
		c.Metrics.Counter("solver_gates_built").Add(st.GatesBuilt)
		c.Metrics.Counter("solver_gates_deduped").Add(st.GatesDeduped)
	}
	if nw.Exprs > 0 {
		c.Metrics.Counter("nway_exprs").Add(int64(nw.Exprs))
		c.Metrics.Counter("nway_comparisons").Add(int64(nw.Comparisons))
		if nw.Escalated > 0 {
			c.Metrics.Counter("nway_escalations").Add(int64(nw.Escalated))
		}
		if nw.Agreed > 0 {
			c.Metrics.Counter("nway_agreed").Add(int64(nw.Agreed))
		}
	}
	if linted {
		c.Metrics.Counter("consistency_checks").Add(checks)
	}
}

// markBusy tracks worker utilization around one expression.
func (c *Comparator) markBusy(delta int64) {
	if c.Metrics != nil {
		c.Metrics.Gauge("workers_busy").Add(delta)
	}
}

// oracleSet bundles the eight oracle facts for one expression, plus the
// time each took and the solver work they cost. Indices into Elapsed
// follow the Table 1 analysis order.
type oracleSet struct {
	Known    oracle.KnownBitsResult
	Sign     oracle.SignBitsResult
	NonZero  oracle.BoolResult
	Negative oracle.BoolResult
	NonNeg   oracle.BoolResult
	Pow2     oracle.BoolResult
	Range    oracle.RangeResult
	Demanded oracle.DemandedBitsResult
	Elapsed  [8]time.Duration
	Solver   solver.Stats
	// Hash is the expression's canonical hash, computed only with a
	// cache (the uncached path never canonicalizes); 0 otherwise.
	Hash uint64
}

// cacheConfig renders the comparator configuration that oracle cache
// entries are keyed under. The oracle itself is independent of the
// compiler under test, but keying on the full configuration keeps cache
// files unambiguous about what produced them (as the artifact's Redis
// keys did) at the cost of re-running when a bug flag changes. The
// oracle has one configuration, which the key still spells
// "no-seed=false;no-strash=false;enum-cutoff=0" so that cache files
// written while those were settings keep hitting.
func (c *Comparator) cacheConfig() string {
	var an llvmport.Analyzer
	if c.Analyzer != nil {
		an = *c.Analyzer
	}
	return fmt.Sprintf("bug-nonzero=%t;bug-sremsign=%t;bug-sremknown=%t;modern=%t;timeout=%s;no-seed=false;no-strash=false;enum-cutoff=0",
		an.Bugs.NonZeroAdd, an.Bugs.SRemSignBits, an.Bugs.SRemKnownBits, an.Modern, c.ExprTimeout)
}

// DomainNames renders the extended-lint domain list (e.g. "tnum,stride")
// for checkpoint fingerprints and logs; empty for the classic lint.
func (c *Comparator) DomainNames() string {
	var sb strings.Builder
	for i, d := range c.Domains {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(d.Name())
	}
	return sb.String()
}

// flightVal is what one flight computes: the analysis result and the
// time it took (replayed by waiters, like a cache hit).
type flightVal struct {
	v       any
	elapsed time.Duration
}

// flightKey renders a rescache key for the flight's map. NUL
// separators keep distinct keys from colliding (no key field contains
// NUL).
func flightKey(k rescache.Key) string {
	return k.Expr + "\x00" + k.Analysis + "\x00" + strconv.FormatInt(k.Budget, 10) + "\x00" + k.Config
}

// oracleFor runs the eight oracle algorithms on f, in Table 1 order,
// under the per-expression deadline, timing each. One engine serves
// every analysis, so the bit-blasted circuit, learned clauses, and the
// expression's total conflict budget are shared across them.
//
// With a cache, f is canonicalized and the oracle runs on the canonical
// form: each analysis is looked up under its rescache key, joins an
// identical computation already in flight (in this Run, a concurrent
// Run, or the fact service), or, as the flight's leader, re-checks the
// cache and then computes and stores. Demanded-bits entries live in the
// canonical variable namespace, so they serve every alpha-variant; the
// returned set names them in f's own variables.
// Results computed while ctx is (or becomes) cancelled are never stored:
// a cancellation-degraded result in a persisted cache would make a
// resumed campaign silently diverge from an uninterrupted one.
func (c *Comparator) oracleFor(ctx context.Context, f *ir.Function) *oracleSet {
	var deadline time.Time
	if c.ExprTimeout > 0 {
		deadline = time.Now().Add(c.ExprTimeout)
	}
	o := &oracleSet{}
	var cn *canon.Canon
	var cfg string
	g := f // the function the oracle analyzes
	if c.Cache != nil {
		cn = canon.Canonicalize(f)
		g, cfg, o.Hash = cn.F, c.cacheConfig(), cn.Hash
	}
	sp := c.exprSpan(ctx, g, cn)
	// The engine and the seed are built on first use, so an expression
	// the cache answers in full constructs neither. A seed built after
	// known bits are in starts out enriched with them.
	var eng solver.Engine
	engine := func() solver.Engine {
		if eng == nil {
			eng = c.newEngine(ctx, g, deadline)
		}
		return eng
	}
	var sd *oracle.Seed
	seed := func() oracle.Seed {
		if sd == nil {
			s := oracle.ComputeSeed(g)
			if o.Known.Feasible {
				s.EnrichFromKnown(o.Known.Bits, !o.Known.Exhausted)
			}
			sd = &s
		}
		return *sd
	}
	// step fills analysis i: compute runs it on the engine and stores the
	// result in o; fromCache adopts a cached or in-flight value into o,
	// reporting whether it had the analysis's result type.
	step := func(i int, fromCache func(any) bool, compute func(e solver.Engine) any) {
		solve := func() flightVal {
			start := time.Now()
			e := engine()
			asp := sp.Child(trace.KindAnalysis, string(analysisOrder[i]))
			e.SetTraceSpan(asp)
			v := compute(e)
			asp.End()
			return flightVal{v: v, elapsed: time.Since(start)}
		}
		if c.Cache == nil {
			o.Elapsed[i] = solve().elapsed
			return
		}
		k := rescache.Key{Expr: cn.Key, Analysis: string(analysisOrder[i]), Budget: c.Budget, Config: cfg}
		if e, ok := c.Cache.Get(k); ok && fromCache(e.Value) {
			o.Elapsed[i] = e.Elapsed
			return
		}
		adopted := false
		res, _, shared := c.flight.Do(flightKey(k), func() (any, error) {
			if c.flightHook != nil {
				c.flightHook()
			}
			// A leader that finished between the Get above and this
			// flight has stored its result: adopt it instead of solving
			// again. Peek leaves the hit and miss counts alone.
			if e, ok := c.Cache.Peek(k); ok && fromCache(e.Value) {
				adopted = true
				return flightVal{v: e.Value, elapsed: e.Elapsed}, nil
			}
			fv := solve()
			if ctx.Err() == nil { // possibly degraded by cancellation: do not memoize
				c.Cache.Put(k, rescache.Entry{Value: fv.v, Elapsed: fv.elapsed})
			}
			return fv, nil
		})
		fv, _ := res.(flightVal)
		if (shared || adopted) && c.Metrics != nil {
			c.Metrics.Counter("flight_collapsed").Inc()
		}
		if shared {
			if !fromCache(fv.v) {
				// Unreachable unless the leader panicked: its value always
				// has the key's result type. Recompute locally.
				fv = solve()
			}
		}
		o.Elapsed[i] = fv.elapsed
	}
	step(0,
		func(v any) (ok bool) { o.Known, ok = v.(oracle.KnownBitsResult); return },
		func(e solver.Engine) any { o.Known = oracle.KnownBitsSeeded(e, g, seed()); return o.Known })
	// Whether the known bits came from the cache or a fresh run, they
	// enrich the seed for the analyses below.
	if sd != nil && o.Known.Feasible {
		sd.EnrichFromKnown(o.Known.Bits, !o.Known.Exhausted)
	}
	step(1,
		func(v any) (ok bool) { o.Sign, ok = v.(oracle.SignBitsResult); return },
		func(e solver.Engine) any { o.Sign = oracle.SignBitsSeeded(e, g, seed()); return o.Sign })
	step(2,
		func(v any) (ok bool) { o.NonZero, ok = v.(oracle.BoolResult); return },
		func(e solver.Engine) any { o.NonZero = oracle.NonZeroSeeded(e, g, seed()); return o.NonZero })
	step(3,
		func(v any) (ok bool) { o.Negative, ok = v.(oracle.BoolResult); return },
		func(e solver.Engine) any { o.Negative = oracle.NegativeSeeded(e, g, seed()); return o.Negative })
	step(4,
		func(v any) (ok bool) { o.NonNeg, ok = v.(oracle.BoolResult); return },
		func(e solver.Engine) any { o.NonNeg = oracle.NonNegativeSeeded(e, g, seed()); return o.NonNeg })
	step(5,
		func(v any) (ok bool) { o.Pow2, ok = v.(oracle.BoolResult); return },
		func(e solver.Engine) any { o.Pow2 = oracle.PowerOfTwoSeeded(e, g, seed()); return o.Pow2 })
	step(6,
		func(v any) (ok bool) { o.Range, ok = v.(oracle.RangeResult); return },
		func(e solver.Engine) any { o.Range = oracle.IntegerRangeSeeded(e, g, seed()); return o.Range })
	step(7,
		func(v any) (ok bool) { o.Demanded, ok = v.(oracle.DemandedBitsResult); return },
		func(e solver.Engine) any { o.Demanded = oracle.DemandedBitsSeeded(e, g, seed()); return o.Demanded })
	if cn != nil {
		// A fresh map: the canonical one may be shared through the cache.
		dm := make(map[string]apint.Int, len(f.Vars))
		for _, v := range f.Vars {
			if m, ok := o.Demanded.Demanded[cn.CanonName(v.Name)]; ok {
				dm[v.Name] = m
			}
		}
		o.Demanded.Demanded = dm
	}
	if eng != nil {
		o.Solver = eng.Stats()
	}
	endExprSpan(sp, o.Solver)
	return o
}

// classify turns the oracle facts and the LLVM-port facts for f into the
// Table 1 result list: one entry per forward analysis plus one entry per
// input variable for demanded bits.
func (c *Comparator) classify(f *ir.Function, fa *llvmport.Facts, o *oracleSet) []Result {
	out := make([]Result, 0, 7+len(f.Vars))
	add := func(i int, r Result) {
		r.Elapsed = o.Elapsed[i]
		out = append(out, r)
	}
	add(0, compareKnownBits(o.Known, fa))
	add(1, compareSignBits(o.Sign, fa))
	add(2, compareBool(harvest.NonZero, o.NonZero, fa.NonZero()))
	add(3, compareBool(harvest.Negative, o.Negative, fa.Negative()))
	add(4, compareBool(harvest.NonNegative, o.NonNeg, fa.NonNegative()))
	add(5, compareBool(harvest.PowerOfTwo, o.Pow2, fa.PowerOfTwo()))
	add(6, compareRange(o.Range, fa))
	dm := compareDemanded(o.Demanded, fa, f)
	if len(dm) > 0 {
		dm[0].Elapsed = o.Elapsed[7]
	}
	out = append(out, dm...)
	return out
}

// CompareExpr runs all eight analyses of Table 1 on one expression, through
// the cache when one is set. The returned results contain one entry per
// forward analysis plus one entry per input variable for demanded bits
// (the paper counts demanded-bits comparisons per variable).
func (c *Comparator) CompareExpr(f *ir.Function) []Result {
	return c.CompareExprContext(context.Background(), f)
}

// CompareExprContext is CompareExpr under a cancellation context: when
// ctx is cancelled, in-flight solver queries abort within one check
// interval and the remaining queries fail fast, so the expression still
// comes back with well-formed (exhaustion-degraded) results promptly.
func (c *Comparator) CompareExprContext(ctx context.Context, f *ir.Function) []Result {
	cmp := c.compareOne(ctx, f, false)
	c.recordCompared([]*compared{cmp})
	return cmp.results
}

// nwayExprStats is one expression's n-way pre-filter outcome.
type nwayExprStats struct {
	comparisons, disagreements, contradictions int
	escalated, agreed, dead                    bool
}

// nwayCheck cross-checks all analyzer variants on f, returning the
// pre-filter stats and the contradiction results (gated, like the
// consistency lint, on the expression having a well-defined input: on
// dead code arbitrary fact sets are vacuously sound). The stats count
// only the contradictions that pass the gate.
func (c *Comparator) nwayCheck(ctx context.Context, f *ir.Function) (*nwayExprStats, []Result) {
	sp := trace.FromContext(ctx).Child(trace.KindAnalysis, "nway")
	cmp := nway.Compare(f, nway.Variants(c.Analyzer))
	st := &nwayExprStats{
		comparisons:   cmp.Checks,
		disagreements: cmp.Disagreements,
		escalated:     cmp.Escalate(),
		dead:          cmp.Dead,
	}
	st.agreed = !cmp.Dead && !cmp.Escalate()
	var out []Result
	if len(cmp.Contradictions) > 0 && hasWellDefinedInput(f) {
		out = make([]Result, 0, len(cmp.Contradictions))
		for _, cd := range cmp.Contradictions {
			out = append(out, Result{
				Analysis:   cd.Analysis,
				Outcome:    VariantsContradict,
				Var:        cd.A + " vs " + cd.B,
				OracleFact: cd.AFact,
				LLVMFact:   cd.BFact,
			})
		}
	}
	st.contradictions = len(out)
	if sp != nil {
		sp.SetInt("comparisons", int64(st.comparisons))
		sp.SetInt("disagreements", int64(st.disagreements))
		sp.SetInt("contradictions", int64(st.contradictions))
		sp.End()
	}
	return st, out
}

// compared is one expression's pipeline output: its results, the oracle
// run (nil when the n-way pre-filter skipped it), whether the lint ran
// and how many consistency checks it performed, and the n-way stats (nil
// unless NWay).
type compared struct {
	results []Result
	oracle  *oracleSet
	linted  bool
	checks  int
	nway    *nwayExprStats
}

// compareOne runs the per-expression pipeline: the n-way pre-filter when
// enabled (skipping the oracle on agreement), the oracle comparison, and
// the cross-domain consistency lint. With skippable set it returns nil
// when ctx is cancelled before the oracle starts, so a run stopped at a
// batch boundary counts the expression as skipped rather than spending
// an oracle run on exhaustion-degraded results.
func (c *Comparator) compareOne(ctx context.Context, f *ir.Function, skippable bool) *compared {
	out := &compared{}
	runOracle := true
	if c.NWay {
		out.nway, out.results = c.nwayCheck(ctx, f)
		// Escalate to the oracle only when some variant pair disagreed;
		// agreement (or a dead expression) leaves nothing to decide.
		runOracle = out.nway.escalated
	}
	if runOracle && skippable && ctx.Err() != nil {
		return nil
	}
	var fa *llvmport.Facts
	if runOracle || c.Consistency {
		fa = c.Analyzer.Analyze(f)
	}
	if runOracle {
		out.oracle = c.oracleFor(ctx, f)
		out.results = append(c.classify(f, fa, out.oracle), out.results...)
	}
	if !c.Consistency {
		return out
	}
	sp := trace.FromContext(ctx).Child(trace.KindAnalysis, "consistency")
	lint, checks := c.lintExpr(f, fa)
	if sp != nil {
		sp.SetInt("checks", int64(checks))
		sp.End()
	}
	out.results = append(out.results, lint...)
	out.linted, out.checks = true, checks
	return out
}

// lintExpr cross-checks the compiler's own domain facts for one analyzed
// expression (absint.CheckFacts) and renders contradictions as
// Inconsistent results. A contradiction only implies a bug when the
// expression has at least one well-defined input — on an expression
// whose every evaluation is poison/UB, arbitrary fact sets are vacuously
// sound — so findings on dead expressions are suppressed. The
// definedness probe runs only when a contradiction was found.
func (c *Comparator) lintExpr(f *ir.Function, fa *llvmport.Facts) ([]Result, int) {
	incons, checks := absint.CheckFactsDomains(f, fa, absint.ExtraFactsFor(f, c.Domains))
	if len(incons) == 0 || !hasWellDefinedInput(f) {
		return nil, checks
	}
	out := make([]Result, 0, len(incons))
	for _, ic := range incons {
		out = append(out, Result{
			Analysis: ConsistencyAnalysis,
			Outcome:  Inconsistent,
			Var:      ic.Inst,
			LLVMFact: ic.Detail,
		})
	}
	return out, checks
}

// hasWellDefinedInput reports whether some input assignment evaluates f
// without hitting UB/poison: exhaustively for small input spaces,
// otherwise by deterministic random sampling (which can only err toward
// suppressing a finding, never toward a false positive).
func hasWellDefinedInput(f *ir.Function) bool {
	if eval.TotalInputBits(f) <= 16 {
		found := false
		eval.ForEachInput(f, func(env eval.Env) bool {
			if _, ok := eval.Eval(f, env); ok {
				found = true
				return false
			}
			return true
		})
		return found
	}
	rng := rand.New(rand.NewSource(1))
	_, ok := eval.RandomWellDefinedEnv(f, rng, 4096)
	return ok
}

func compareKnownBits(o oracle.KnownBitsResult, fa *llvmport.Facts) Result {
	r := Result{
		Analysis:   harvest.KnownBits,
		OracleFact: o.Bits.String(),
		LLVMFact:   fa.KnownBits().String(),
	}
	switch {
	case o.Exhausted:
		r.Outcome = ResourceExhausted
	case !o.Feasible:
		// Dead code (no well-defined input): every fact is vacuously
		// sound, and the oracle's bottom element is maximally precise.
		r.OracleFact = "<dead code>"
		r.Outcome = OracleMorePrecise
	case !fa.KnownBits().AtLeastAsPreciseAs(o.Bits) && !o.Bits.AtLeastAsPreciseAs(fa.KnownBits()):
		// Incomparable claims: LLVM asserts a bit the maximally precise
		// result does not — unsound.
		r.Outcome = LLVMMorePrecise
	case fa.KnownBits().Eq(o.Bits):
		r.Outcome = Same
	case o.Bits.AtLeastAsPreciseAs(fa.KnownBits()):
		r.Outcome = OracleMorePrecise
	default:
		r.Outcome = LLVMMorePrecise
	}
	return r
}

func compareSignBits(o oracle.SignBitsResult, fa *llvmport.Facts) Result {
	llvm := fa.NumSignBits()
	r := Result{
		Analysis:   harvest.SignBits,
		OracleFact: fmt.Sprint(o.NumSignBits),
		LLVMFact:   fmt.Sprint(llvm),
	}
	switch {
	case o.Exhausted:
		r.Outcome = ResourceExhausted
	case !o.Feasible && llvm != o.NumSignBits:
		r.Outcome = OracleMorePrecise
	case llvm == o.NumSignBits:
		r.Outcome = Same
	case llvm < o.NumSignBits:
		r.Outcome = OracleMorePrecise
	default:
		r.Outcome = LLVMMorePrecise
	}
	return r
}

func compareBool(a harvest.Analysis, o oracle.BoolResult, llvm bool) Result {
	r := Result{
		Analysis:   a,
		OracleFact: fmt.Sprint(o.Proved),
		LLVMFact:   fmt.Sprint(llvm),
	}
	switch {
	case o.Exhausted:
		r.Outcome = ResourceExhausted
	case !o.Feasible && o.Proved != llvm:
		r.Outcome = OracleMorePrecise // vacuously provable on dead code
	case o.Proved == llvm:
		r.Outcome = Same
	case o.Proved:
		r.Outcome = OracleMorePrecise
	default:
		r.Outcome = LLVMMorePrecise
	}
	return r
}

func compareRange(o oracle.RangeResult, fa *llvmport.Facts) Result {
	llvm := fa.Range()
	r := Result{
		Analysis:   harvest.IntegerRange,
		OracleFact: o.Range.String(),
		LLVMFact:   llvm.String(),
	}
	switch {
	case o.Exhausted:
		r.Outcome = ResourceExhausted
	case !o.Feasible:
		r.OracleFact = "<dead code>"
		if llvm.IsEmpty() {
			r.Outcome = Same
		} else {
			r.Outcome = OracleMorePrecise
		}
	case llvm.Eq(o.Range):
		r.Outcome = Same
	case llvm.SizeLT(o.Range):
		// A range smaller than the maximally precise one must exclude
		// an achievable value.
		r.Outcome = LLVMMorePrecise
	case o.Range.SizeLT(llvm):
		r.Outcome = OracleMorePrecise
	default:
		// Equal size, different sets: both are minimal covers.
		r.Outcome = Same
	}
	return r
}

func compareDemanded(o oracle.DemandedBitsResult, fa *llvmport.Facts, f *ir.Function) []Result {
	llvm := fa.DemandedBits()
	out := make([]Result, 0, len(f.Vars))
	for _, v := range f.Vars {
		om := o.Demanded[v.Name]
		lm := llvm[v.Name]
		r := Result{
			Analysis:   harvest.DemandedBits,
			Var:        v.Name,
			OracleFact: om.BitString(),
			LLVMFact:   lm.BitString(),
		}
		switch {
		case o.Exhausted:
			r.Outcome = ResourceExhausted
		case !o.Feasible && !lm.Eq(om):
			r.Outcome = OracleMorePrecise // dead code demands nothing
		case lm.Eq(om):
			r.Outcome = Same
		case lm.Or(om).Eq(lm):
			// LLVM demands a superset: oracle proved more bits dead.
			r.Outcome = OracleMorePrecise
		default:
			// LLVM claims some bit dead that the oracle proved matters.
			r.Outcome = LLVMMorePrecise
		}
		out = append(out, r)
	}
	return out
}

// FindingKind separates the ways a soundness bug surfaces: the oracle
// disagreeing with the compiler, the compiler's own domains disagreeing
// with each other, or two analyzer variants contradicting each other.
type FindingKind string

// Finding kinds.
const (
	FindingSoundness    FindingKind = "soundness"   // LLVM claims more than the oracle allows
	FindingInconsistent FindingKind = "consistency" // two LLVM domains contradict each other
	FindingVariant      FindingKind = "nway"        // two analyzer variants contradict each other
)

// Finding is a soundness-bug report, printed the way §4.7 shows them.
// It encodes flat, the Result's facts between the kind and the source,
// in -json reports and checkpoints alike.
type Finding struct {
	ExprName string      `json:"expr"`
	Kind     FindingKind `json:"kind,omitempty"`
	Result
	Source string `json:"source"`
	// Reduced is the 1-minimal expression still triggering this finding
	// kind, set when the comparator ran with Reduce; ReduceSteps counts
	// the accepted shrinking transformations that produced it.
	Reduced     string `json:"reduced,omitempty"`
	ReduceSteps int    `json:"reduce_steps,omitempty"`
}

// String renders the finding in the paper's report format. Consistency
// findings name the contradicting instruction (Result.Var) and the
// contradiction itself (Result.LLVMFact); n-way findings name the
// contradicting variant pair (Result.Var) and both claims.
func (f Finding) String() string {
	var s string
	switch f.Kind {
	case FindingInconsistent:
		s = fmt.Sprintf("%s\nconsistency: %s: %s\ndomains are contradictory\n",
			f.Source, f.Result.Var, f.Result.LLVMFact)
	case FindingVariant:
		s = fmt.Sprintf("%s\nnway %s (%s): %s vs %s\nvariants are contradictory\n",
			f.Source, f.Result.Analysis, f.Result.Var, f.Result.OracleFact, f.Result.LLVMFact)
	default:
		s = fmt.Sprintf("%s\n%s from our tool: %s\n%s from llvm: %s\nllvm is stronger\n",
			f.Source, f.Result.Analysis, f.Result.OracleFact, f.Result.Analysis, f.Result.LLVMFact)
	}
	if f.Reduced != "" {
		s += fmt.Sprintf("reduced (%d steps):\n%s\n", f.ReduceSteps, f.Reduced)
	}
	return s
}

// Row aggregates Table 1 counts for one analysis. Its JSON encoding is
// the checkpoint's row; -json reports render their own (jsonRow).
type Row struct {
	Analysis  harvest.Analysis `json:"analysis"`
	Same      int              `json:"same"`
	OracleMP  int              `json:"oracle_more_precise"`
	LLVMMP    int              `json:"llvm_more_precise"`
	Exhausted int              `json:"resource_exhausted"`
	Exprs     int              `json:"exprs"` // expressions contributing to CPUTime
	CPUTime   time.Duration    `json:"cpu_time_ns"`
}

// Total returns the number of comparisons in the row.
func (r Row) Total() int { return r.Same + r.OracleMP + r.LLVMMP + r.Exhausted }

// CacheStats reports the oracle cache traffic of one Run.
type CacheStats struct {
	// Stats counts the oracle result lookups during this run.
	rescache.Stats
	// Entries is the cache size after the run.
	Entries int
}

// String renders the stats as the one cache: line the CLIs print to
// stderr.
func (s CacheStats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses (%.1f%% hit rate), %d entries",
		s.Hits, s.Misses, 100*s.HitRate(), s.Entries)
}

// NWayStats summarizes the n-way pre-filter over a run: how many
// expressions agreed (and therefore skipped the oracle entirely), how
// many escalated, and the pairwise comparison volume behind that.
type NWayStats struct {
	// Exprs counts expressions cross-checked; Agreed + Escalated + Dead
	// partition it.
	Exprs     int `json:"exprs"`
	Agreed    int `json:"agreed"`
	Escalated int `json:"escalated"`
	Dead      int `json:"dead"`
	// Comparisons counts the per-domain pairwise fact comparisons;
	// Disagreements the non-equivalent ones; Contradictions the subset no
	// pair of sound analyzers could produce that became findings, which
	// leaves out those on expressions with no well-defined input.
	Comparisons    int `json:"comparisons"`
	Disagreements  int `json:"disagreements"`
	Contradictions int `json:"contradictions"`
}

// String renders the stats as the one nway: line of the text report and
// of dfcheck-fuzz's summary.
func (s NWayStats) String() string {
	return fmt.Sprintf("nway: %d exprs (%d agreed, %d escalated, %d dead); %d comparisons, %d disagreements, %d contradictions",
		s.Exprs, s.Agreed, s.Escalated, s.Dead, s.Comparisons, s.Disagreements, s.Contradictions)
}

func (s *NWayStats) add(e *nwayExprStats) {
	if s == nil || e == nil {
		return
	}
	s.Exprs++
	s.Comparisons += e.comparisons
	s.Disagreements += e.disagreements
	s.Contradictions += e.contradictions
	switch {
	case e.dead:
		s.Dead++
	case e.escalated:
		s.Escalated++
	default:
		s.Agreed++
	}
}

// Report is a full Table 1 run.
type Report struct {
	Rows     map[harvest.Analysis]*Row
	Findings []Finding
	// ConsistencyChecks counts the cross-domain checks performed by the
	// consistency lint (zero unless Comparator.Consistency).
	ConsistencyChecks int
	// NWay summarizes the n-way pre-filter (nil unless Comparator.NWay).
	// In n-way mode the Table 1 rows cover escalated expressions only.
	NWay *NWayStats
	// Cache is set by cached runs (Comparator.Cache != nil).
	Cache *CacheStats
	// Interrupted is true when the run's context was cancelled before
	// every corpus entry was compared; Skipped counts the entries that
	// were never analyzed. The rows and findings cover only the analyzed
	// entries — a partial but well-formed report.
	Interrupted bool
	Skipped     int
}

// NewReport returns an empty report: a zero row per Table 1 analysis.
func NewReport() *Report {
	rep := &Report{Rows: make(map[harvest.Analysis]*Row)}
	for _, a := range harvest.AllAnalyses {
		rep.Rows[a] = &Row{Analysis: a}
	}
	return rep
}

// absorb aggregates one corpus entry's results into the report, naming
// its findings by the entry's own name and source.
func (rep *Report) absorb(e harvest.Expr, results []Result) {
	seen := map[harvest.Analysis]bool{}
	for _, r := range results {
		if r.Outcome == Inconsistent || r.Outcome == VariantsContradict {
			// Lint and n-way findings sit outside the Table 1 rows.
			kind := FindingInconsistent
			if r.Outcome == VariantsContradict {
				kind = FindingVariant
			}
			rep.Findings = append(rep.Findings, Finding{
				ExprName: e.Name, Source: e.F.String(), Kind: kind, Result: r})
			continue
		}
		row := rep.Rows[r.Analysis]
		switch r.Outcome {
		case Same:
			row.Same++
		case OracleMorePrecise:
			row.OracleMP++
		case LLVMMorePrecise:
			row.LLVMMP++
			rep.Findings = append(rep.Findings, Finding{
				ExprName: e.Name, Source: e.F.String(), Kind: FindingSoundness, Result: r})
		case ResourceExhausted:
			row.Exhausted++
		}
		row.CPUTime += r.Elapsed
		if !seen[r.Analysis] {
			seen[r.Analysis] = true
			row.Exprs++
		}
	}
}

// Run compares every expression in the corpus and aggregates Table 1.
// With Workers > 1, expressions are compared concurrently; aggregation
// order (and thus the report) stays deterministic.
func (c *Comparator) Run(corpus []harvest.Expr) *Report {
	return c.RunContext(context.Background(), corpus)
}

// RunContext is Run under a cancellation context: cancelling ctx stops
// workers at the next expression boundary (and aborts their in-flight
// solver queries), returning a partial report with Interrupted set
// instead of tearing the process down mid-batch. It is RunBatches with
// one batch.
func (c *Comparator) RunContext(ctx context.Context, corpus []harvest.Expr) *Report {
	ctx, endRoot := c.rootSpan(ctx, "run")
	defer endRoot()
	var rep *Report
	fed := false
	c.RunBatches(ctx, func() (Batch, bool) {
		if fed {
			return Batch{}, false
		}
		fed = true
		return Batch{Corpus: corpus, Done: func(r *Report) bool { rep = r; return true }}, true
	})
	return rep
}

// Batch is one corpus of a RunBatches stream, with the hooks that open
// and close it.
type Batch struct {
	Corpus []harvest.Expr
	// Start, when set, runs on the dispatching goroutine just before the
	// batch's first expression goes to a worker. The context it returns
	// is the one the batch is compared and reduced under: a campaign
	// opens its batch span there.
	Start func(ctx context.Context) context.Context
	// Done receives the batch's report on RunBatches' own goroutine, in
	// batch order, once the batch's last expression is compared. It
	// returns whether the caller keeps the report: only a kept batch's
	// outcomes and per-expression metrics are recorded.
	Done func(rep *Report) bool
}

// batchRun is one batch in flight: its distinct sources, their results
// as the workers fill them in, and the jobs not yet finished.
type batchRun struct {
	Batch
	ctx   context.Context
	group []int       // corpus index -> distinct-source index
	first []int       // corpus index of each distinct source
	out   []*compared // per distinct source; nil if never compared
	jobs  sync.WaitGroup
}

// job is one distinct source of one batch, as handed to a worker.
type job struct {
	br *batchRun
	g  int
}

// RunBatches compares the batches next yields, in order, on one pool of
// max(Workers, 1) goroutines that lives for the whole call, so workers
// wait neither for a batch's slowest expression nor for the next
// batch's corpus. It is the comparator's one run path.
//
// Each batch is grouped by exact source text on its own: entries with
// byte-identical sources get identical results, so each distinct source
// is compared once and its results fold back onto every entry with that
// source, under the entry's own name. Grouping never spans batches.
// Alpha-variants differ in text and are compared one by one; with a
// cache their oracle answers come from it.
//
// Every distinct source of batch k goes to a worker before any of batch
// k+1. next is called for batch k+1 only then, and only once batch k-1
// has been through Done, so at most one batch is generated ahead of the
// one being folded. A batch's report reaches Done once its last
// expression is compared and its findings are reduced (Reduce); its
// outcomes and its expressions' per-expression metrics are recorded
// after Done, if Done keeps the report. Its cache counts are the lookups
// made since the previous batch's report, so over a run they add up to
// the run's whole traffic.
//
// Cancelling ctx stops the dispatch at once: next is not called again,
// and a batch's expressions not yet started, or stopped before their
// oracle, count as Skipped in its report, which still goes to Done.
// RunBatches returns once every goroutine it started has exited.
func (c *Comparator) RunBatches(ctx context.Context, next func() (Batch, bool)) {
	var before rescache.Stats
	if c.Cache != nil {
		before = c.Cache.Stats()
	}
	// Both channels are unbuffered: a job is dispatched when a worker
	// takes it, and the dispatcher hands over a batch, and may then
	// generate the next, only when the previous batch is folded.
	jobs := make(chan job)
	ready := make(chan *batchRun)
	var wg sync.WaitGroup
	for w := 0; w < max(c.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				c.work(j)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		defer close(jobs)
		for ctx.Err() == nil {
			b, ok := next()
			if !ok {
				return
			}
			ready <- c.dispatch(ctx, b, jobs)
		}
	}()
	for br := range ready {
		br.jobs.Wait()
		var rep *Report
		rep, before = c.report(br, before)
		if br.Done(rep) {
			c.recordReport(rep, br.out)
		}
	}
	wg.Wait()
}

// dispatch groups b's corpus by source text, opens the batch
// (Batch.Start) and hands its distinct sources to the workers one at a
// time, stopping early once ctx is cancelled.
func (c *Comparator) dispatch(ctx context.Context, b Batch, jobs chan<- job) *batchRun {
	br := &batchRun{Batch: b, ctx: ctx, group: make([]int, len(b.Corpus))}
	seen := make(map[string]int, len(b.Corpus))
	for i, e := range b.Corpus {
		src := e.F.String()
		g, ok := seen[src]
		if !ok {
			g = len(br.first)
			seen[src] = g
			br.first = append(br.first, i)
		}
		br.group[i] = g
	}
	br.out = make([]*compared, len(br.first))
	if b.Start != nil {
		br.ctx = b.Start(ctx)
	}
	for g := range br.first {
		br.jobs.Add(1)
		select {
		case jobs <- job{br, g}:
		case <-ctx.Done():
			br.jobs.Done()
			return br
		}
	}
	return br
}

// work compares one distinct source on a worker, unless its batch was
// cancelled before the worker took it.
func (c *Comparator) work(j job) {
	br := j.br
	defer br.jobs.Done()
	if br.ctx.Err() != nil {
		return
	}
	c.markBusy(1)
	br.out[j.g] = c.compareOne(br.ctx, br.Corpus[br.first[j.g]].F, true)
	c.markBusy(-1)
}

// report folds a finished batch's results onto its entries, reduces its
// findings, and records its cache traffic since before, returning the
// report and the cache stats it ends at.
func (c *Comparator) report(br *batchRun, before rescache.Stats) (*Report, rescache.Stats) {
	rep := NewReport()
	if c.NWay {
		rep.NWay = &NWayStats{}
	}
	for i, e := range br.Corpus {
		cmp := br.out[br.group[i]]
		if cmp == nil {
			rep.Skipped++
			continue
		}
		rep.ConsistencyChecks += cmp.checks
		rep.NWay.add(cmp.nway)
		rep.absorb(e, cmp.results)
	}
	rep.Interrupted = rep.Skipped > 0
	if c.Reduce {
		c.reduceFindings(br.ctx, rep, br.Corpus)
	}
	if c.Cache != nil {
		after := c.Cache.Stats()
		rep.Cache = &CacheStats{
			Stats:   rescache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses},
			Entries: c.Cache.Len(),
		}
		before = after
	}
	return rep, before
}

// reduceFindings shrinks every finding in rep to a 1-minimal expression
// preserving its finding kind, attaching the reduced source text. A
// cancelled context stops between findings, leaving the rest unreduced.
func (c *Comparator) reduceFindings(ctx context.Context, rep *Report, corpus []harvest.Expr) {
	if len(rep.Findings) == 0 {
		return
	}
	byName := make(map[string]*ir.Function, len(corpus))
	for _, e := range corpus {
		byName[e.Name] = e.F
	}
	for i := range rep.Findings {
		if ctx.Err() != nil {
			return
		}
		fd := &rep.Findings[i]
		f := byName[fd.ExprName]
		if f == nil {
			continue
		}
		sp := trace.FromContext(ctx).Child(trace.KindAnalysis, "reduce")
		res := reduce.Reduce(f, c.FindingProperty(ctx, *fd))
		fd.Reduced = res.F.String()
		fd.ReduceSteps = res.Steps
		if sp != nil {
			sp.SetStr("expr", fd.ExprName)
			sp.SetInt("steps", int64(res.Steps))
			sp.SetInt("tried", int64(res.Tried))
			sp.End()
		}
		if c.Metrics != nil {
			c.Metrics.Counter("reduce_findings").Inc()
			c.Metrics.Counter("reduce_steps").Add(int64(res.Steps))
			c.Metrics.Counter("reduce_candidates").Add(int64(res.Tried))
		}
	}
}

// FindingProperty returns the reducer property for one finding: does a
// candidate expression still trigger the same finding kind in the same
// analysis? Soundness findings re-run the full oracle comparison (on a
// fresh untraced, uncached sub-comparator), n-way findings re-run the
// variant cross-check, consistency findings re-run the lint; all three
// require the candidate to keep a well-defined input, so reduction can
// never land on a vacuously-contradictory dead expression.
func (c *Comparator) FindingProperty(ctx context.Context, fd Finding) reduce.Property {
	switch fd.Kind {
	case FindingInconsistent:
		return func(g *ir.Function) bool {
			incons, _ := absint.CheckFactsDomains(g, c.Analyzer.Analyze(g), absint.ExtraFactsFor(g, c.Domains))
			return len(incons) > 0 && hasWellDefinedInput(g)
		}
	case FindingVariant:
		vs := nway.Variants(c.Analyzer)
		return func(g *ir.Function) bool {
			cmp := nway.Compare(g, vs)
			for _, cd := range cmp.Contradictions {
				if cd.Analysis == fd.Result.Analysis {
					return hasWellDefinedInput(g)
				}
			}
			return false
		}
	default:
		sub := c.reducerComparator()
		return func(g *ir.Function) bool {
			for _, r := range sub.CompareExprContext(ctx, g) {
				if r.Analysis == fd.Result.Analysis && r.Outcome == LLVMMorePrecise {
					return true
				}
			}
			return false
		}
	}
}

// reducerComparator clones the oracle-relevant configuration for
// re-checking reduction candidates, without the cache (candidate churn
// would pollute it), metrics, tracer, or the n-way/consistency extras.
func (c *Comparator) reducerComparator() *Comparator {
	return &Comparator{
		Analyzer:    c.Analyzer,
		Budget:      c.Budget,
		ExprTimeout: c.ExprTimeout,
	}
}

// recordReport rolls a kept batch into the metrics registry: its
// report's outcomes and the per-expression metrics of its distinct
// sources, cmps (aggregation goroutine, after workers are done).
func (c *Comparator) recordReport(rep *Report, cmps []*compared) {
	if c.Metrics == nil {
		return
	}
	c.recordCompared(cmps)
	var sound, incons, variant int64
	for _, f := range rep.Findings {
		switch f.Kind {
		case FindingInconsistent:
			incons++
		case FindingVariant:
			variant++
		default:
			sound++
		}
	}
	c.Metrics.Counter("findings").Add(sound)
	if incons > 0 {
		c.Metrics.Counter("inconsistent_findings").Add(incons)
	}
	if variant > 0 {
		c.Metrics.Counter("nway_findings").Add(variant)
	}
	if rep.Skipped > 0 {
		c.Metrics.Counter("exprs_skipped").Add(int64(rep.Skipped))
	}
}
