package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/trace"
)

// The table1 workload is precision-table at its defaults over a
// 120-expression corpus: the uncached comparator with the consistency
// lint and one worker per CPU, over harvest.Generate at widths 4/8/13/16
// plus the paper's fragments. Every pass compares the whole corpus but
// one expression; the seed orders the light part of it. The expressions
// themselves are the seed-2020 corpus the golden file records, so every
// result is checked exactly.

// heavyCost separates the expressions a pass dispatches first.
const heavyCost = 100 * time.Millisecond

// table1Skipped is the one expression a pass leaves out. It alone takes
// 22 s of the corpus's 32 s of oracle time (its SAT queries), longer than
// a run's window, so with it a run would be one pass whose time is that
// one solve. Without it a pass takes 8 to 11 s on 2 CPUs and a run
// averages several; the SAT tail stays in the pass through gen-000053
// (4.7 s) and the dozen expressions between 100 ms and 1 s. The golden
// file still records its results.
const table1Skipped = "gen-000114"

func table1Corpus() []harvest.Expr {
	corpus := harvest.Generate(harvest.Config{
		Seed:     2020,
		NumExprs: 120,
		MaxInsts: 8,
		Widths: []harvest.WidthWeight{
			{Width: 4, Weight: 10}, {Width: 8, Weight: 45}, {Width: 13, Weight: 15}, {Width: 16, Weight: 30},
		},
		MaxCastWidth: 16,
	})
	for _, fr := range harvest.PaperFragments {
		corpus = append(corpus, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF(), Freq: 1})
	}
	return corpus
}

// table1Comparator is precision-table's comparator: uncached, consistency
// lint on, five-minute expression cap.
func table1Comparator(bugs llvmport.BugConfig, workers int) *compare.Comparator {
	return &compare.Comparator{
		Analyzer:    &llvmport.Analyzer{Bugs: bugs},
		Workers:     workers,
		ExprTimeout: exprTimeout,
		Consistency: true,
	}
}

// table1Golden is testdata/table1.json.
type table1Golden struct {
	Exprs []table1Expr `json:"exprs"`
	// Rows is Table 1 over the whole corpus: per analysis, the counts of
	// same precision, oracle more precise, LLVM more precise and resource
	// exhaustion.
	Rows map[string][4]int `json:"rows"`
}

type table1Expr struct {
	Name string `json:"name"`
	// CostMs is the sequential comparison time when the file was written;
	// it orders a pass's heavy expressions, never which ones a pass
	// compares.
	CostMs  float64  `json:"cost_ms"`
	Results []string `json:"results"`
}

// resultKey renders one comparison result as the golden file stores it.
func resultKey(r compare.Result) string {
	return strings.Join([]string{string(r.Analysis), r.Var, r.Outcome.String(), r.OracleFact, r.LLVMFact}, "|")
}

// checkResults compares one expression's results with the golden ones.
// A result the golden file records as resource exhaustion may come back
// decided, provided it is not a finding: more solving is allowed, a new
// exhaustion or any other difference is not.
func checkResults(want []string, got []compare.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, golden has %d", len(got), len(want))
	}
	exhausted := compare.ResourceExhausted.String()
	for i, r := range got {
		k := resultKey(r)
		if k == want[i] {
			continue
		}
		w := strings.Split(want[i], "|")
		finding := r.Outcome == compare.LLVMMorePrecise || r.Outcome == compare.Inconsistent || r.Outcome == compare.VariantsContradict
		if len(w) == 5 && w[2] == exhausted && w[0] == string(r.Analysis) && w[1] == r.Var && !finding {
			continue
		}
		return fmt.Errorf("result %q, golden %q", k, want[i])
	}
	return nil
}

// tableRows aggregates golden results into Table 1 rows the way
// compare.Report does; lint and n-way findings sit outside the rows.
func tableRows(exprs []table1Expr) map[string][4]int {
	rows := map[string][4]int{}
	col := map[string]int{
		compare.Same.String(): 0, compare.OracleMorePrecise.String(): 1,
		compare.LLVMMorePrecise.String(): 2, compare.ResourceExhausted.String(): 3,
	}
	for _, e := range exprs {
		for _, k := range e.Results {
			w := strings.Split(k, "|")
			c, ok := col[w[2]]
			if !ok {
				continue
			}
			row := rows[w[0]]
			row[c]++
			rows[w[0]] = row
		}
	}
	return rows
}

type table1Inst struct {
	seed   int64
	golden map[string]*table1Expr
	// corpus is what a pass compares; tests shrink it.
	corpus []harvest.Expr
	cmp    *compare.Comparator
}

func setupTable1(seed int64, s *sampler) (instance, error) {
	var g table1Golden
	if err := loadGolden("table1", &g); err != nil {
		return nil, err
	}
	corpus := table1Corpus()
	if len(corpus) != len(g.Exprs) {
		return nil, fmt.Errorf("corpus has %d expressions, golden %d", len(corpus), len(g.Exprs))
	}
	rows := tableRows(g.Exprs)
	for a, row := range g.Rows {
		if rows[a] != row {
			return nil, fmt.Errorf("golden row %s is %v but its results add up to %v", a, row, rows[a])
		}
		if row[2] != 0 {
			return nil, fmt.Errorf("golden row %s has %d LLVM-more-precise results", a, row[2])
		}
	}
	t := &table1Inst{seed: seed, golden: make(map[string]*table1Expr, len(corpus)), cmp: table1Comparator(llvmport.BugConfig{}, 2)}
	for i, e := range corpus {
		ge := &g.Exprs[i]
		if ge.Name != e.Name {
			return nil, fmt.Errorf("corpus entry %d is %s, golden %s", i, e.Name, ge.Name)
		}
		t.golden[e.Name] = ge
		if e.Name != table1Skipped {
			t.corpus = append(t.corpus, e)
		}
	}
	if len(t.corpus) != len(corpus)-1 {
		return nil, fmt.Errorf("corpus has no %s to leave out", table1Skipped)
	}
	// Warm up on the paper's fragments, so that first-use costs land in
	// set-up rather than in the first timed pass.
	for _, e := range corpus[len(corpus)-len(harvest.PaperFragments):] {
		t.check(s, e, t.cmp.CompareExprContext(context.Background(), e.F))
	}
	return t, nil
}

// order is pass p's dispatch order of the corpus: the expressions
// costing more than heavyCost first, longest first, then the rest in a
// seeded order. Dispatching the heavy tail first keeps the two workers'
// loads even at the end of a pass, so the pass time does not depend on
// where the seed would have put gen-000053's 4.7 s.
func (t *table1Inst) order(pass int) []harvest.Expr {
	var heavy, light []harvest.Expr
	for _, e := range t.corpus {
		if t.cost(e) > heavyCost {
			heavy = append(heavy, e)
		} else {
			light = append(light, e)
		}
	}
	sort.SliceStable(heavy, func(i, j int) bool { return t.cost(heavy[i]) > t.cost(heavy[j]) })
	rng := rand.New(rand.NewSource(t.seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
	return append(heavy, light...)
}

func (t *table1Inst) cost(e harvest.Expr) time.Duration {
	return time.Duration(t.golden[e.Name].CostMs * float64(time.Millisecond))
}

func (t *table1Inst) check(s *sampler, e harvest.Expr, rs []compare.Result) {
	if err := checkResults(t.golden[e.Name].Results, rs); err != nil {
		s.mismatch("table1 %s: %v", e.Name, err)
	}
}

// A round is one pass, in one part.
func (t *table1Inst) parts() int { return 1 }

// part compares the corpus in one pass, on two workers sharing one
// comparator as compare.Comparator.Run's pool does.
func (t *table1Inst) part(ctx context.Context, pass, _ int, s *sampler) error {
	t0 := time.Now()
	jobs := make(chan harvest.Expr)
	var wg sync.WaitGroup
	for w := 0; w < t.cmp.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range jobs {
				t0 := time.Now()
				rs := t.cmp.CompareExprContext(ctx, e.F)
				s.op(time.Since(t0), 1, false)
				t.check(s, e, rs)
			}
		}()
	}
	for _, e := range t.order(pass) {
		jobs <- e
	}
	close(jobs)
	wg.Wait()
	s.work(time.Since(t0))
	return nil
}

// detectReps is the number of times detect times each bug. A detection
// is one comparison of a small trigger expression (bug2's takes about
// 0.15 s, the others under a millisecond), short against the host's
// noise, so each pass is followed by three.
const detectReps = 3

// detect times the comparator, with each seeded bug injected, reporting
// that bug on its §4.7 trigger expression: the time to a verdict.
func (t *table1Inst) detect(ctx context.Context, r *replay, s *sampler) error {
	for _, tr := range harvest.SoundnessTriggers {
		name := bugNames[tr.Bug-1]
		c := table1Comparator(bugConfig(tr.Bug), 2)
		f := ir.MustParse(tr.Source)
		for i := 0; i < detectReps; i++ {
			var rs []compare.Result
			s.detected(name, timed(r, "detect."+name, func() { rs = c.CompareExprContext(ctx, f) }))
			if !hasFinding(rs, tr) {
				s.mismatch("table1 %s: no %s finding %s vs %s on its trigger", name, tr.Analysis, tr.OracleFact, tr.BuggyLLVMFact)
			}
		}
		r.set("detect."+name+"_exprs", 1)
	}
	return nil
}

// hasFinding reports whether the results carry the trigger's §4.7
// soundness finding with the paper's facts.
func hasFinding(rs []compare.Result, tr harvest.SoundnessTrigger) bool {
	for _, x := range rs {
		if x.Analysis == tr.Analysis && x.Outcome == compare.LLVMMorePrecise &&
			x.OracleFact == tr.OracleFact && x.LLVMFact == tr.BuggyLLVMFact {
			return true
		}
	}
	return false
}

// replay compares pass 0 one expression at a time, first with the
// untraced comparator on one worker and then layer by layer.
func (t *table1Inst) replay(ctx context.Context, r *replay, s *sampler) (report, replayed time.Duration, err error) {
	ref := table1Comparator(llvmport.BugConfig{}, 1)
	an := &llvmport.Analyzer{}
	for _, e := range t.order(0) {
		rs := ref.CompareExprContext(ctx, e.F)
		t.check(s, e, rs)
		for _, x := range rs {
			report += x.Elapsed
		}
		r.unit("replay-table1", func(root *trace.Span) {
			r.expr(root, e.F, func(sp *trace.Span) {
				fa := r.analyze(sp, an, e.F)
				replayed += r.oracle(sp, e.F)
				r.lint(sp, e.F, fa)
			})
		})
		s.op(0, 1, false)
	}
	return report, replayed, nil
}

func (t *table1Inst) close() {}

// regenTable1 compares the whole corpus sequentially, then compares it
// again on two workers and requires results that pass the golden check,
// so that a nondeterministic result cannot enter the file.
func regenTable1(log io.Writer) (any, error) {
	corpus := table1Corpus()
	seq := table1Comparator(llvmport.BugConfig{}, 1)
	g := table1Golden{}
	for _, e := range corpus {
		t0 := time.Now()
		rs := seq.CompareExprContext(context.Background(), e.F)
		cost := time.Since(t0)
		ge := table1Expr{Name: e.Name, CostMs: float64(cost.Microseconds()) / 1000}
		for _, x := range rs {
			ge.Results = append(ge.Results, resultKey(x))
		}
		g.Exprs = append(g.Exprs, ge)
		fmt.Fprintf(log, "table1 %s %s\n", e.Name, cost.Round(time.Millisecond))
	}
	g.Rows = tableRows(g.Exprs)
	par := table1Comparator(llvmport.BugConfig{}, 2)
	for i, e := range corpus {
		if err := checkResults(g.Exprs[i].Results, par.CompareExprContext(context.Background(), e.F)); err != nil {
			return nil, fmt.Errorf("%s is not deterministic: %w", e.Name, err)
		}
	}
	return g, nil
}
