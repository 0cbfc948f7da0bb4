package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/canon"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
	"dfcheck/internal/sat"
	"dfcheck/internal/solver"
	"dfcheck/internal/trace"
)

// replay is a traced run. It calls each layer's public functions itself,
// one input at a time, and times every call: the span goes to an
// in-memory tracer (written out at the end for cmd/trace-report) and the
// duration to the layer's "<layer>_s" metric.
type replay struct {
	buf  bytes.Buffer
	tr   *trace.Tracer
	wall time.Duration // sum of the units
	busy time.Duration // sum of the layer calls
	// spans is the tracer's own time inside the units: opening and
	// closing the layer and expression spans. trace.coverage leaves it
	// out of the wall clock, since it is the replay's cost, not the
	// system's.
	spans time.Duration
	vals  map[string]float64
	// exprMs is the oracle time of each replayed expression.
	exprMs []time.Duration
}

func newReplay() *replay {
	r := &replay{vals: make(map[string]float64)}
	r.tr = trace.New(&r.buf)
	return r
}

// unit runs fn as one replayed unit of work, under a root span of its
// own. The replay's wall clock is the sum of its units, so what a
// workload does between them (the untraced reference run of the same
// input, golden checks) stays out of trace.coverage.
func (r *replay) unit(name string, fn func(root *trace.Span)) {
	root := r.tr.Start(nil, trace.KindBatch, name)
	t0 := time.Now()
	fn(root)
	r.wall += time.Since(t0)
	root.End()
}

// layer runs fn as one call into the named layer, under parent.
func (r *replay) layer(parent *trace.Span, name string, fn func()) time.Duration {
	open := time.Now()
	sp := parent.Child(trace.KindAnalysis, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t1 := time.Now()
	sp.End()
	r.spans += t0.Sub(open) + time.Since(t1)
	r.vals[name+"_s"] += d.Seconds()
	r.busy += d
	return d
}

// expr runs fn under the span of one replayed expression, with the
// attributes cmd/trace-report groups by. Opening and closing that span,
// canonicalization included, counts as the tracer's own time.
func (r *replay) expr(parent *trace.Span, f *ir.Function, fn func(sp *trace.Span)) {
	open := time.Now()
	cn := canon.Canonicalize(f)
	sp := parent.Child(trace.KindExpr, f.Root.Op.String())
	sp.SetInt("width", int64(f.Width()))
	sp.SetStr("hash", fmt.Sprintf("%016x", cn.Hash))
	sp.SetStr("key", cn.Key)
	t0 := time.Now()
	fn(sp)
	t1 := time.Now()
	sp.End()
	r.spans += t0.Sub(open) + time.Since(t1)
}

// add and set record a per-layer metric; on a nil replay (an untraced
// run) they do nothing.
func (r *replay) add(name string, v float64) {
	if r != nil {
		r.vals[name] += v
	}
}

func (r *replay) set(name string, v float64) {
	if r != nil {
		r.vals[name] = v
	}
}

// finish closes the replay and returns every per-layer metric, zero for
// the layers this workload does not exercise.
func (r *replay) finish(reportTime time.Duration, replayTime time.Duration) map[string]Metric {
	if r.wall > r.spans {
		r.set("trace.coverage", r.busy.Seconds()/(r.wall-r.spans).Seconds())
	}
	if reportTime > 0 {
		r.set("trace.replay_vs_report", replayTime.Seconds()/reportTime.Seconds())
	}
	if n := len(r.exprMs); n > 0 {
		r.set("oracle.expr_p50_ms", percentile(r.exprMs, 5000))
		r.set("oracle.expr_p90_ms", percentile(r.exprMs, 9000))
		r.set("oracle.expr_max_ms", ms(r.exprMs[n-1]))
	}
	out := make(map[string]Metric, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = Metric{Value: r.vals[m.Name], Unit: m.Unit}
	}
	return out
}

// writeTrace saves the spans as a Chrome trace-event file.
func (r *replay) writeTrace(path string) error {
	if err := r.tr.Close(); err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, r.buf.Bytes(), 0o644)
}

// oracle replays the comparator's per-expression oracle pass, in the
// order compare.Comparator runs it: engine, sound-fact seed, then the
// eight algorithms in Table 1 order. It returns the time of the eight
// algorithms alone, the part a Table 1 report attributes as CPU time.
func (r *replay) oracle(sp *trace.Span, f *ir.Function) time.Duration {
	var eng solver.Engine
	r.layer(sp, "solver.engine", func() {
		eng = solver.NewEngine(f, solver.Config{Deadline: time.Now().Add(exprTimeout)})
	})
	var sd oracle.Seed
	r.layer(sp, "oracle.seed", func() { sd = oracle.ComputeSeed(f) })
	var kb oracle.KnownBitsResult
	t := r.layer(sp, "oracle.known_bits", func() { kb = oracle.KnownBitsSeeded(eng, f, sd) })
	if kb.Feasible {
		r.layer(sp, "oracle.seed", func() { sd.EnrichFromKnown(kb.Bits, !kb.Exhausted) })
	}
	t += r.layer(sp, "oracle.sign_bits", func() { oracle.SignBitsSeeded(eng, f, sd) })
	t += r.layer(sp, "oracle.predicates", func() {
		oracle.NonZeroSeeded(eng, f, sd)
		oracle.NegativeSeeded(eng, f, sd)
		oracle.NonNegativeSeeded(eng, f, sd)
		oracle.PowerOfTwoSeeded(eng, f, sd)
	})
	t += r.layer(sp, "oracle.integer_range", func() { oracle.IntegerRangeSeeded(eng, f, sd) })
	t += r.layer(sp, "oracle.demanded_bits", func() { oracle.DemandedBits(eng, f) })

	st := eng.Stats()
	r.add("solver.queries", float64(st.Queries))
	r.add("solver.pruned_queries", float64(st.Pruned))
	r.add("solver.enum_queries", float64(st.EnumQueries))
	r.add("solver.exhausted", float64(st.Exhausted))
	r.add("solver.portfolio_runs", float64(st.PortfolioRuns))
	r.add("sat.conflicts", float64(st.Conflicts))
	r.add("sat.propagations", float64(st.Propagations))
	if _, isSAT := eng.(*solver.SATEngine); isSAT {
		r.add("solver.sat_s", t.Seconds())
		// One standalone blast of the expression, so the bit-blaster's
		// cost and circuit size show apart from the queries it feeds.
		var cs bitblast.CircuitStats
		r.layer(sp, "bitblast.blast", func() {
			c := bitblast.NewCircuit(sat.New())
			bitblast.BlastCircuit(c, f)
			cs = c.Stats()
		})
		r.add("bitblast.gates", float64(cs.Gates))
		r.add("bitblast.gates_deduped", float64(cs.Deduped+cs.Rewrites))
		r.add("bitblast.clauses", float64(cs.Clauses))
	} else {
		r.add("solver.enum_s", t.Seconds())
	}
	r.exprMs = append(r.exprMs, t)
	return t
}

// analyze replays the compiler-under-test's forward analyses.
func (r *replay) analyze(sp *trace.Span, an *llvmport.Analyzer, f *ir.Function) *llvmport.Facts {
	var fa *llvmport.Facts
	r.layer(sp, "llvmport.analyze", func() { fa = an.Analyze(f) })
	return fa
}

// lint replays the comparator's cross-domain consistency lint.
func (r *replay) lint(sp *trace.Span, f *ir.Function, fa *llvmport.Facts) {
	var checks int
	r.layer(sp, "absint.lint", func() {
		_, checks = absint.CheckFactsDomains(f, fa, absint.ExtraFactsFor(f, nil))
	})
	r.add("absint.consistency_checks", float64(checks))
}
