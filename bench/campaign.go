package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"dfcheck/internal/campaign"
	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/nway"
	"dfcheck/internal/trace"
)

// The campaign workload is dfcheck-fuzz -nway -seed 11 at its defaults:
// batches of 50 generated expressions plus one mutant each, n-way
// pre-filter and consistency lint on, one worker per CPU. The golden file
// records all 200 batches of that campaign; the seed picks the batch the
// timed campaign starts at, wrapping around after the last.

const (
	campaignBatches = 200
	// detectEvery is the length of a part of the timed loop's round, in
	// batches: five parts per campaign, each followed by a detection.
	detectEvery = 40
	// replayBatches is the number of batches a traced run replays.
	replayBatches = 20
)

func campaignConfig() campaign.Config {
	return campaign.Config{
		Seed:     11,
		Batches:  campaignBatches,
		NumExprs: 50,
		MaxInsts: 6,
		Widths: []harvest.WidthWeight{
			{Width: 4, Weight: 1}, {Width: 8, Weight: 3}, {Width: 13, Weight: 1}, {Width: 16, Weight: 2},
		},
		MaxCastWidth: 16,
		Mutants:      1,
	}
}

// campaignComparator is dfcheck-fuzz's comparator in -nway mode.
func campaignComparator(bugs llvmport.BugConfig, workers int) *compare.Comparator {
	return &compare.Comparator{
		Analyzer:    &llvmport.Analyzer{Bugs: bugs},
		Workers:     workers,
		ExprTimeout: exprTimeout,
		Metrics:     metrics.NewRegistry(),
		Consistency: true,
		NWay:        true,
	}
}

// batchStats is one batch's n-way funnel and Table 1 counts.
type batchStats struct {
	Exprs     int     `json:"exprs"`
	Agreed    int     `json:"agreed"`
	Escalated int     `json:"escalated"`
	Dead      int     `json:"dead"`
	Same      int     `json:"same"`
	OracleMP  int     `json:"oracle_mp"`
	LLVMMP    int     `json:"llvm_mp"`
	Exhausted int     `json:"exhausted"`
	Findings  int     `json:"findings"`
	CostMs    float64 `json:"cost_ms,omitempty"`
}

func totalsStats(t campaign.Totals) batchStats {
	st := batchStats{Exprs: t.Exprs, Findings: len(t.Findings)}
	if t.NWay != nil {
		st.Agreed, st.Escalated, st.Dead = t.NWay.Agreed, t.NWay.Escalated, t.NWay.Dead
	}
	for _, row := range t.Rows {
		st.Same += row.Same
		st.OracleMP += row.OracleMP
		st.LLVMMP += row.LLVMMP
		st.Exhausted += row.Exhausted
	}
	return st
}

func (a batchStats) minus(b batchStats) batchStats {
	return batchStats{
		Exprs: a.Exprs - b.Exprs, Agreed: a.Agreed - b.Agreed, Escalated: a.Escalated - b.Escalated,
		Dead: a.Dead - b.Dead, Same: a.Same - b.Same, OracleMP: a.OracleMP - b.OracleMP,
		LLVMMP: a.LLVMMP - b.LLVMMP, Exhausted: a.Exhausted - b.Exhausted, Findings: a.Findings - b.Findings,
	}
}

// checkBatch compares a batch with its golden record. As in table1, an
// exhausted result may come back decided, as long as it is not a finding.
func checkBatch(got, want batchStats) error {
	want.CostMs = 0
	if got == want {
		return nil
	}
	solved := want.Exhausted - got.Exhausted
	if solved > 0 && got.LLVMMP == 0 && got.Findings == 0 &&
		got.Exprs == want.Exprs && got.Agreed == want.Agreed && got.Escalated == want.Escalated && got.Dead == want.Dead &&
		got.Same+got.OracleMP == want.Same+want.OracleMP+solved {
		return nil
	}
	return fmt.Errorf("batch %+v, golden %+v", got, want)
}

// campaignGolden is testdata/campaign.json.
type campaignGolden struct {
	Batches []batchStats `json:"batches"`
	// Detect records, per seeded bug, the campaign's first finding.
	Detect map[string]campaignFinding `json:"detect"`
}

type campaignFinding struct {
	Batch    int    `json:"batch"`
	Exprs    int    `json:"exprs"`
	Kind     string `json:"kind"`
	Analysis string `json:"analysis"`
	Expr     string `json:"expr"`
}

type campaignInst struct {
	seed   int64
	golden campaignGolden
	cmp    *compare.Comparator
	// batches is the length of a timed round, replayed the number of
	// batches a traced run replays, and bugs the seeded bugs detect looks
	// for; tests shrink all three.
	batches  int
	replayed int
	bugs     []int
}

func setupCampaign(seed int64, s *sampler) (instance, error) {
	t := &campaignInst{seed: seed, cmp: campaignComparator(llvmport.BugConfig{}, 2),
		batches: campaignBatches, replayed: replayBatches, bugs: []int{1, 2, 3}}
	if err := loadGolden("campaign", &t.golden); err != nil {
		return nil, err
	}
	if len(t.golden.Batches) != campaignBatches {
		return nil, fmt.Errorf("golden has %d batches, want %d", len(t.golden.Batches), campaignBatches)
	}
	// Warm up on the first batch, whatever the seed.
	err := drive(context.Background(), t.cmp, 0, func(b int, st batchStats, _ time.Duration, _ *campaign.Campaign) bool {
		if err := checkBatch(st, t.golden.Batches[b]); err != nil {
			s.mismatch("campaign batch %d: %v", b, err)
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (t *campaignInst) startBatch() int {
	b := int(t.seed % campaignBatches)
	if b < 0 {
		b += campaignBatches
	}
	return b
}

// drive runs the reference campaign's batches on c from batch b0,
// starting over at batch 0 after the last, and calls after once per
// finished batch with the batch's stats and time until it returns false.
func drive(ctx context.Context, c *compare.Comparator, b0 int, after func(b int, st batchStats, d time.Duration, camp *campaign.Campaign) bool) error {
	for {
		bctx, cancel := context.WithCancel(ctx)
		camp := campaign.New(campaignConfig(), c)
		camp.NextBatch = b0
		prev := totalsStats(camp.Totals)
		last := time.Now()
		stopped := false
		camp.AfterBatch = func(b int) {
			now := time.Now()
			cur := totalsStats(camp.Totals)
			if !after(b, cur.minus(prev), now.Sub(last), camp) {
				stopped = true
				cancel()
			}
			prev, last = cur, time.Now()
		}
		err := camp.Run(bctx)
		cancel()
		if stopped {
			return nil
		}
		if err != nil {
			return err
		}
		b0 = 0
	}
}

// A round is the whole 200-batch campaign, from the seed's start batch
// round to the one before it, in parts of detectEvery batches. The batch
// costs have a heavy tail (a few batches take over a second), so only
// whole campaigns are the same work every run.
func (t *campaignInst) parts() int { return (t.batches + detectEvery - 1) / detectEvery }

func (t *campaignInst) part(ctx context.Context, _, i int, s *sampler) error {
	n := min(detectEvery, t.batches-i*detectEvery)
	done := 0
	t0 := time.Now()
	err := drive(ctx, t.cmp, (t.startBatch()+i*detectEvery)%campaignBatches, func(b int, st batchStats, d time.Duration, _ *campaign.Campaign) bool {
		s.op(d, int64(st.Exprs), false)
		if err := checkBatch(st, t.golden.Batches[b]); err != nil {
			s.mismatch("campaign batch %d: %v", b, err)
		}
		done++
		return done < n
	})
	s.work(time.Since(t0))
	return err
}

// firstFinding runs the campaign from batch 0 with the seeded bug until
// its first finding and returns the time that took.
func firstFinding(ctx context.Context, bug int) (time.Duration, campaignFinding, error) {
	var got campaignFinding
	c := campaignComparator(bugConfig(bug), 2)
	t0 := time.Now()
	var d time.Duration
	err := drive(ctx, c, 0, func(b int, st batchStats, _ time.Duration, camp *campaign.Campaign) bool {
		if st.Findings == 0 {
			if b == campaignBatches-1 {
				got.Batch = -1
				return false
			}
			return true
		}
		d = time.Since(t0)
		f := camp.Totals.Findings[len(camp.Totals.Findings)-st.Findings]
		got = campaignFinding{Batch: b, Exprs: camp.Totals.Exprs, Kind: string(f.Kind), Analysis: string(f.Result.Analysis), Expr: f.ExprName}
		return false
	})
	return d, got, err
}

// detect times the campaign, with each seeded bug injected, from its
// first batch to its first finding.
func (t *campaignInst) detect(ctx context.Context, r *replay, s *sampler) error {
	for _, bug := range t.bugs {
		name := bugNames[bug-1]
		var d time.Duration
		var got campaignFinding
		var err error
		timed(r, "detect."+name, func() { d, got, err = firstFinding(ctx, bug) })
		if err != nil {
			return err
		}
		if want := t.golden.Detect[name]; got != want {
			s.mismatch("campaign %s: first finding %+v, golden %+v", name, got, want)
		}
		s.detected(name, d)
		r.set("detect."+name+"_exprs", float64(got.Exprs))
	}
	return nil
}

// replay takes the batches from the seed's start batch one at a time:
// each runs untraced on one worker, then again one expression and one
// layer call at a time, in the order the comparator's n-way path takes
// them.
func (t *campaignInst) replay(ctx context.Context, r *replay, s *sampler) (report, replayed time.Duration, err error) {
	ref := campaignComparator(llvmport.BugConfig{}, 1)
	an := &llvmport.Analyzer{}
	gen := campaign.New(campaignConfig(), nil)
	var exprs, escalated int
	for i, b := 0, t.startBatch(); i < t.replayed; i, b = i+1, (b+1)%campaignBatches {
		err := drive(ctx, ref, b, func(b int, st batchStats, _ time.Duration, camp *campaign.Campaign) bool {
			if err := checkBatch(st, t.golden.Batches[b]); err != nil {
				s.mismatch("campaign batch %d: %v", b, err)
			}
			for _, row := range camp.Totals.Rows {
				report += row.CPUTime
			}
			return false
		})
		if err != nil {
			return 0, 0, err
		}
		var st batchStats
		var n int
		r.unit("replay-campaign", func(root *trace.Span) {
			var corpus []harvest.Expr
			r.layer(root, "harvest.corpus", func() { corpus = gen.Corpus(b) })
			n = len(corpus)
			for _, e := range corpus {
				r.expr(root, e.F, func(sp *trace.Span) {
					var cmp nway.Comparison
					r.layer(sp, "nway.compare", func() { cmp = nway.Compare(e.F, nway.Variants(an)) })
					fa := r.analyze(sp, an, e.F)
					switch {
					case cmp.Dead:
						st.Dead++
					case cmp.Escalate():
						st.Escalated++
						o := r.oracle(sp, e.F)
						replayed += o
						r.add("oracle.escalated_s", o.Seconds())
					default:
						st.Agreed++
					}
					r.lint(sp, e.F, fa)
					r.add("nway.comparisons", float64(cmp.Checks))
				})
			}
		})
		want := t.golden.Batches[b]
		if st.Agreed != want.Agreed || st.Escalated != want.Escalated || st.Dead != want.Dead {
			s.mismatch("campaign batch %d replay funnel %d/%d/%d, golden %d/%d/%d",
				b, st.Agreed, st.Escalated, st.Dead, want.Agreed, want.Escalated, want.Dead)
		}
		s.op(0, int64(n), false)
		exprs += n
		escalated += st.Escalated
	}
	if exprs > 0 {
		r.set("nway.escalation_ratio", float64(escalated)/float64(exprs))
	}
	return report, replayed, nil
}

func (t *campaignInst) close() {}

func regenCampaign(log io.Writer) (any, error) {
	g := campaignGolden{Detect: map[string]campaignFinding{}}
	c := campaignComparator(llvmport.BugConfig{}, 2)
	err := drive(context.Background(), c, 0, func(b int, st batchStats, d time.Duration, _ *campaign.Campaign) bool {
		st.CostMs = float64(d.Microseconds()) / 1000
		g.Batches = append(g.Batches, st)
		return b < campaignBatches-1
	})
	if err != nil {
		return nil, err
	}
	var tot batchStats
	for _, st := range g.Batches {
		if st.Findings != 0 || st.LLVMMP != 0 {
			return nil, errors.New("the clean campaign reports findings")
		}
		tot.Exprs += st.Exprs
		tot.Agreed += st.Agreed
		tot.Escalated += st.Escalated
		tot.Dead += st.Dead
	}
	fmt.Fprintf(log, "campaign: %d exprs, %d agreed, %d escalated, %d dead\n", tot.Exprs, tot.Agreed, tot.Escalated, tot.Dead)
	for i, name := range bugNames {
		d, got, err := firstFinding(context.Background(), i+1)
		if err != nil {
			return nil, err
		}
		if got.Batch < 0 {
			return nil, fmt.Errorf("%s is never found", name)
		}
		fmt.Fprintf(log, "campaign: %s found at batch %d after %s\n", name, got.Batch, d.Round(time.Millisecond))
		g.Detect[name] = got
	}
	return g, nil
}
