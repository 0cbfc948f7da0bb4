// Package campaign is the long-running testing loop of §4.7, extracted
// from the dfcheck-fuzz binary so it can be tested: deterministic batch
// corpus construction, cumulative Table 1 tallies, checkpoint files that
// let an interrupted campaign resume exactly where it stopped, and the
// metrics/event stream a multi-day run needs. The authors ran their loop
// unattended for weeks; anything that long must survive being killed.
package campaign

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
	"dfcheck/internal/trace"
)

// Config fixes everything that determines a campaign's corpus. Two
// campaigns with equal Configs and Comparator settings produce identical
// batches, which is what makes checkpoint/resume exact.
type Config struct {
	// Seed is the campaign master seed. Batch b generates with
	// Seed+b and mutates with Seed+b*7919, so batches are independent
	// and reproducible from (Seed, b) alone.
	Seed int64
	// Batches is the number of batches to run; 0 means run until
	// cancelled.
	Batches int
	// NumExprs is the generated expressions per batch.
	NumExprs int
	// MaxInsts bounds instructions per generated expression.
	MaxInsts int
	// Widths are the generator's base-width weights.
	Widths []harvest.WidthWeight
	// MaxCastWidth caps zext/sext target widths.
	MaxCastWidth uint
	// Mutants is the number of mutated variants appended per generated
	// expression (Csmith-style seed mutation).
	Mutants int
	// Canaries appends the §4.7 trigger expressions to every batch.
	Canaries bool

	// FactSvc records that the campaign process also serves external
	// fact queries (-factsvc) through the comparator's cache and
	// single-flight layers. It does not change what a batch computes in
	// isolation, but serving traffic interleaves nondeterministically
	// with batches (external queries warm the cache mid-campaign), so —
	// unlike Workers, which has a result-equivalence test — it folds
	// into the fingerprint, with the stripe count of the comparator's
	// cache: a checkpoint resumes only under the serving setup it was
	// written with.
	FactSvc bool

	// CheckpointPath, when set, is where the campaign state file is
	// written: after the first batch to end checkpointInterval or more
	// after the last save (or after Run began), on interruption, and at
	// the end of the run.
	CheckpointPath string

	// Events, when non-nil, receives one "batch" record per completed
	// batch and one self-contained "finding" record per soundness
	// finding. A nil log is a no-op.
	Events *metrics.EventLog
	// Progress, when non-nil, receives one line per completed batch and
	// any non-fatal warnings (checkpoint write failures).
	Progress io.Writer
	// AfterBatch, when non-nil, runs after each completed batch with the
	// batch index just finished — the hook tests use to cancel a
	// campaign at a deterministic point.
	AfterBatch func(batch int)
}

// Totals is the campaign's cumulative Table 1 state: what a final report
// is printed from, and what a checkpoint persists. It is the sum of the
// batch reports (compare.Report.Add) plus the batch and expression
// counts. CPU times are carried along but are the only fields not
// reproducible across runs.
type Totals struct {
	compare.Report
	Batches int
	Exprs   int
}

func newTotals() Totals { return Totals{Report: *compare.NewReport()} }

// checkpointInterval is the least time between periodic checkpoint
// saves. A save rewrites the whole state file, tens of milliseconds on
// an ordinary disk, which a save per batch would spend on every batch of
// a fast campaign; a kill loses at most this much work.
var checkpointInterval = 10 * time.Second

// Campaign is one (possibly resumed) run of the testing loop. It records
// its counters into the comparator's metrics registry and opens its batch
// spans on the comparator's tracer, beside the comparator's own.
type Campaign struct {
	Config
	Comparator *compare.Comparator

	// Totals accumulates across batches; NextBatch is the first batch
	// not yet folded in. Both are restored by Resume.
	Totals    Totals
	NextBatch int

	// start, runBatches and runExprs are the time and the Totals counts
	// when Run began: progress rates cover only this process's batches,
	// not those a resumed checkpoint carried in.
	start                time.Time
	runBatches, runExprs int
	// saved is when the last checkpoint save began, or when Run began.
	saved time.Time
}

// New returns a campaign at batch zero.
func New(cfg Config, c *compare.Comparator) *Campaign {
	return &Campaign{Config: cfg, Comparator: c, Totals: newTotals()}
}

// Corpus builds batch b's corpus. It is a pure function of (Config, b):
// generation seeds with Seed+b, mutation with Seed+b*7919, and canaries
// append in fixed order — so a resumed campaign rebuilds exactly the
// batches an uninterrupted one would have run.
func (c *Campaign) Corpus(b int) []harvest.Expr {
	corpus := harvest.Generate(harvest.Config{
		Seed:         c.Seed + int64(b),
		NumExprs:     c.NumExprs,
		MaxInsts:     c.MaxInsts,
		Widths:       c.Widths,
		MaxCastWidth: c.MaxCastWidth,
	})
	if c.Mutants > 0 {
		mrng := rand.New(rand.NewSource(c.Seed + int64(b)*7919))
		base := corpus
		for _, e := range base {
			for m := 0; m < c.Mutants; m++ {
				corpus = append(corpus, harvest.Expr{
					Name: fmt.Sprintf("%s-mut%d", e.Name, m),
					F:    harvest.Mutate(e.F, mrng),
					Freq: 1,
				})
			}
		}
	}
	if c.Canaries {
		for _, tr := range harvest.SoundnessTriggers {
			corpus = append(corpus, harvest.Expr{Name: "canary-" + tr.Name, F: ir.MustParse(tr.Source), Freq: 1})
		}
	}
	return corpus
}

// BatchSeed returns the generation seed batch b runs under (printed in
// progress lines and finding records so a batch is reproducible alone).
func (c *Campaign) BatchSeed(b int) int64 { return c.Seed + int64(b) }

func (c *Campaign) warnf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, "warning: "+format+"\n", args...)
	}
}

// checkpoint saves the state file if one is configured, warning (not
// failing) on write errors: a full disk should cost the checkpoint, not
// the campaign.
func (c *Campaign) checkpoint() {
	if c.CheckpointPath == "" {
		return
	}
	c.saved = time.Now()
	if err := c.SaveCheckpoint(c.CheckpointPath); err != nil {
		c.warnf("checkpoint not saved: %v", err)
		return
	}
	if m := c.Comparator.Metrics; m != nil {
		m.Counter("checkpoints_saved").Inc()
	}
}

// emitBatch writes the batch summary event and progress line.
func (c *Campaign) emitBatch(b int, rep *compare.Report, exprs int, elapsed time.Duration) {
	var exhausted int
	for _, row := range rep.Rows {
		exhausted += row.Exhausted
	}
	ev := map[string]any{
		"batch":      b,
		"seed":       c.BatchSeed(b),
		"exprs":      exprs,
		"findings":   len(rep.Findings),
		"exhausted":  exhausted,
		"elapsed_ms": elapsed.Milliseconds(),
	}
	if rep.ConsistencyChecks > 0 {
		ev["consistency_checks"] = rep.ConsistencyChecks
	}
	if rep.NWay != nil {
		ev["nway_agreed"] = rep.NWay.Agreed
		ev["nway_escalated"] = rep.NWay.Escalated
	}
	c.Events.Emit("batch", ev)
	// Rates and ETA count only the batches this Run finished.
	ran := time.Since(c.start)
	ranExprs := float64(c.Totals.Exprs - c.runExprs)
	if m := c.Comparator.Metrics; m != nil {
		// Campaign progress for /metricsz and /dashboardz. Rates are
		// published in milli-units (exprs/sec × 1000) because gauges are
		// integers; ETA is -1 for endless campaigns.
		m.Gauge("campaign_batches_done").Set(int64(c.Totals.Batches))
		m.Gauge("campaign_batches_total").Set(int64(c.Batches))
		m.Counter("campaign_exprs_total").Add(int64(exprs))
		m.Gauge("campaign_exprs_per_sec_milli").Set(int64(ranExprs / ran.Seconds() * 1000))
		eta := int64(-1)
		if done := c.Totals.Batches - c.runBatches; c.Batches > 0 && done > 0 {
			eta = int64((time.Duration(c.Batches-c.NextBatch) * (ran / time.Duration(done))).Seconds())
		}
		m.Gauge("campaign_eta_seconds").Set(eta)
	}
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, "batch %4d seed %8d: %4d exprs, %2d findings, %3d exhausted, %6.1f exprs/min\n",
			b, c.BatchSeed(b), exprs, len(rep.Findings), exhausted, ranExprs/ran.Minutes())
	}
}

// emitFindings writes one self-contained event per finding: everything
// needed to reproduce it — the batch seed, the expression source, and
// both facts — lives in the record, so a finding survives even if the
// checkpoint and cache files do not. Findings also print to Progress as
// they are found; a week-long campaign should not sit on them until exit.
func (c *Campaign) emitFindings(b int, rep *compare.Report) {
	for _, f := range rep.Findings {
		if c.Progress != nil {
			fmt.Fprintf(c.Progress, "=== %s FINDING (batch %d, %s) ===\n%s\n", f.Kind.Label(), b, f.ExprName, f)
		}
		ev := map[string]any{
			"batch":       b,
			"seed":        c.BatchSeed(b),
			"expr":        f.ExprName,
			"kind":        string(f.Kind),
			"analysis":    string(f.Result.Analysis),
			"var":         f.Result.Var,
			"oracle_fact": f.Result.OracleFact,
			"llvm_fact":   f.Result.LLVMFact,
			"source":      f.Source,
		}
		if f.Reduced != "" {
			ev["reduced"] = f.Reduced
			ev["reduce_steps"] = f.ReduceSteps
		}
		if m := c.Comparator.Metrics; m != nil {
			m.CounterL("campaign_findings", metrics.Labels{"kind": string(f.Kind)}).Inc()
		}
		c.Events.Emit("finding", ev)
	}
}

// Run executes batches NextBatch..Batches-1 (or forever when Batches is
// 0) until done or ctx is cancelled. The batches stream through the
// comparator's one worker pool (compare.Comparator.RunBatches), so
// batch b+1 is generated and started while batch b's last expressions
// finish; each batch is folded into the totals, reported and
// checkpointed in batch order. A batch that was interrupted, or that
// finished after the cancel, is discarded whole — its report is never
// folded into the totals, so Totals only ever contains complete batches
// and a resumed campaign reproduces them identically. Returns ctx.Err()
// when interrupted, nil when the campaign ran to completion.
func (c *Campaign) Run(ctx context.Context) error {
	c.start, c.runBatches, c.runExprs = time.Now(), c.Totals.Batches, c.Totals.Exprs
	c.saved = c.start
	b := c.NextBatch
	c.Comparator.RunBatches(ctx, func() (compare.Batch, bool) {
		if c.Batches > 0 && b >= c.Batches {
			return compare.Batch{}, false
		}
		b++
		return c.batch(ctx, b-1), true
	})
	c.checkpoint()
	if c.Batches > 0 && c.NextBatch >= c.Batches {
		return nil
	}
	return ctx.Err()
}

// batch builds batch b for the comparator's stream. The batch's span and
// elapsed time run from its first dispatched expression to its fold, so
// adjacent batches may overlap in time.
func (c *Campaign) batch(ctx context.Context, b int) compare.Batch {
	corpus := c.Corpus(b)
	var start time.Time
	var sp *trace.Span
	return compare.Batch{
		Corpus: corpus,
		Start: func(bctx context.Context) context.Context {
			start = time.Now()
			sp = c.Comparator.Tracer.Start(nil, trace.KindBatch, "batch")
			if sp == nil {
				return bctx
			}
			sp.SetInt("batch", int64(b))
			sp.SetInt("seed", c.BatchSeed(b))
			return trace.NewContext(bctx, sp)
		},
		Done: func(rep *compare.Report) bool {
			sp.End()
			if ctx.Err() != nil {
				return false
			}
			c.fold(b, rep, len(corpus), time.Since(start))
			return true
		},
	}
}

// fold adds batch b's report to the totals and reports the batch: its
// event and progress line, its findings, a periodic checkpoint, and
// AfterBatch.
func (c *Campaign) fold(b int, rep *compare.Report, exprs int, elapsed time.Duration) {
	c.Totals.Add(rep)
	c.Totals.Batches++
	c.Totals.Exprs += exprs
	c.NextBatch = b + 1
	if m := c.Comparator.Metrics; m != nil {
		m.Counter("batches").Inc()
	}
	c.emitBatch(b, rep, exprs, elapsed)
	c.emitFindings(b, rep)
	if time.Since(c.saved) >= checkpointInterval {
		c.checkpoint()
	}
	if c.AfterBatch != nil {
		c.AfterBatch(b)
	}
}

// Report assembles the cumulative Table 1 report from the totals, in the
// same shape batch reports use, so the existing renderers apply.
func (c *Campaign) Report() *compare.Report {
	rep := compare.NewReport()
	rep.Add(&c.Totals.Report)
	return rep
}
