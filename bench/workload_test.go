package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
)

// parseResult turns a golden result key back into a compare.Result.
func parseResult(t *testing.T, key string) compare.Result {
	t.Helper()
	w := strings.Split(key, "|")
	if len(w) != 5 {
		t.Fatalf("bad golden key %q", key)
	}
	r := compare.Result{Analysis: harvest.Analysis(w[0]), Var: w[1], OracleFact: w[3], LLVMFact: w[4]}
	for o := compare.Same; o <= compare.VariantsContradict; o++ {
		if o.String() == w[2] {
			r.Outcome = o
		}
	}
	return r
}

func TestCheckResultsCatchesMismatch(t *testing.T) {
	var g table1Golden
	if err := loadGolden("table1", &g); err != nil {
		t.Fatal(err)
	}
	var exhausted, decided *table1Expr
	for i := range g.Exprs {
		for _, k := range g.Exprs[i].Results {
			if strings.Contains(k, "|"+compare.ResourceExhausted.String()+"|") {
				exhausted = &g.Exprs[i]
			} else if decided == nil {
				decided = &g.Exprs[i]
			}
		}
	}
	if exhausted == nil || decided == nil {
		t.Fatal("golden file has no exhausted or no decided result")
	}
	results := func(e *table1Expr) []compare.Result {
		var rs []compare.Result
		for _, k := range e.Results {
			rs = append(rs, parseResult(t, k))
		}
		return rs
	}

	if err := checkResults(decided.Results, results(decided)); err != nil {
		t.Errorf("golden results do not match themselves: %v", err)
	}
	rs := results(decided)
	rs[0].OracleFact += "?"
	if checkResults(decided.Results, rs) == nil {
		t.Error("a changed fact passed the check")
	}
	rs = results(decided)
	rs[0].Outcome = compare.ResourceExhausted
	if checkResults(decided.Results, rs) == nil {
		t.Error("a new exhaustion passed the check")
	}
	if checkResults(decided.Results, results(decided)[1:]) == nil {
		t.Error("a missing result passed the check")
	}

	// An exhausted golden result may come back decided, but not as a
	// finding.
	rs = results(exhausted)
	for i := range rs {
		if rs[i].Outcome == compare.ResourceExhausted {
			rs[i].Outcome = compare.OracleMorePrecise
			if err := checkResults(exhausted.Results, rs); err != nil {
				t.Errorf("a newly decided result failed the check: %v", err)
			}
			rs[i].Outcome = compare.LLVMMorePrecise
			if checkResults(exhausted.Results, rs) == nil {
				t.Error("a finding passed the check")
			}
			break
		}
	}
}

func TestCheckBatchCatchesMismatch(t *testing.T) {
	want := batchStats{Exprs: 100, Agreed: 60, Escalated: 30, Dead: 10, Same: 150, OracleMP: 80, Exhausted: 2}
	for _, c := range []struct {
		name string
		got  batchStats
		ok   bool
	}{
		{"equal", want, true},
		{"an exhausted result decided", batchStats{Exprs: 100, Agreed: 60, Escalated: 30, Dead: 10, Same: 151, OracleMP: 80, Exhausted: 1}, true},
		{"funnel moved", batchStats{Exprs: 100, Agreed: 61, Escalated: 29, Dead: 10, Same: 150, OracleMP: 80, Exhausted: 2}, false},
		{"a finding", batchStats{Exprs: 100, Agreed: 60, Escalated: 30, Dead: 10, Same: 150, OracleMP: 80, Exhausted: 2, Findings: 1}, false},
		{"a new exhaustion", batchStats{Exprs: 100, Agreed: 60, Escalated: 30, Dead: 10, Same: 149, OracleMP: 80, Exhausted: 3}, false},
	} {
		if err := checkBatch(c.got, want); (err == nil) != c.ok {
			t.Errorf("%s: checkBatch = %v", c.name, err)
		}
	}
}

func TestGoldenTable1Rows(t *testing.T) {
	var g table1Golden
	if err := loadGolden("table1", &g); err != nil {
		t.Fatal(err)
	}
	exhausted, total := 0, 0
	for a, row := range g.Rows {
		if row[2] != 0 {
			t.Errorf("%s: %d LLVM-more-precise results", a, row[2])
		}
		exhausted += row[3]
		total += row[0] + row[1] + row[2] + row[3]
	}
	if exhausted != 32 || total != 1168 {
		t.Errorf("Table 1 has %d exhausted of %d results, want 32 of 1168", exhausted, total)
	}
}

// TestWorkloadsSmoke runs every workload end to end at a tiny scale:
// set-up with its golden checks, a short timed loop with its detections,
// and the traced replay.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	shrink := map[string]func(instance){
		"table1": func(in instance) {
			t1 := in.(*table1Inst)
			t1.corpus = cheapExprs(t1, 4)
		},
		"campaign": func(in instance) {
			c := in.(*campaignInst)
			c.batches, c.replayed, c.bugs = 2, 1, []int{1}
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := &sampler{}
			in, err := w.setup(w.refSeed, s)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			shrink[w.name](in)
			if err := measure(ctx, w, in, w.refSeed, 100*time.Millisecond, s); err != nil {
				t.Fatal(err)
			}
			if s.busy <= 0 || s.rounds != 1 || s.attempted == 0 || s.items == 0 || len(s.lat) == 0 {
				t.Errorf("measured %v in %d rounds with %d operations, %d expressions", s.busy, s.rounds, s.attempted, s.items)
			}
			// Detections and more set-ups follow each part.
			for bug, ds := range s.detects {
				if len(ds) == 0 || len(ds)%in.parts() != 0 {
					t.Errorf("%s detected %d times in %d parts", bug, len(ds), in.parts())
				}
			}
			if len(s.detects) == 0 || len(s.setups) != setupsPerPart*in.parts() {
				t.Errorf("%d bugs detected, %d set-ups timed", len(s.detects), len(s.setups))
			}
			r := newReplay()
			if _, _, err := in.replay(ctx, r, s); err != nil {
				t.Fatal(err)
			}
			m := r.finish(0, 0)
			if cov := m["trace.coverage"].Value; cov < minCoverage {
				t.Errorf("trace coverage %.3f", cov)
			}
			if len(s.mismatches) > 0 {
				t.Errorf("golden mismatches: %v", s.mismatches)
			}
		})
	}
}

// cheapExprs returns up to n of the corpus's expressions that cost under
// 5 ms each.
func cheapExprs(t1 *table1Inst, n int) []harvest.Expr {
	var out []harvest.Expr
	for _, e := range t1.corpus {
		if t1.cost(e) < 5*time.Millisecond && len(out) < n {
			out = append(out, e)
		}
	}
	return out
}

// TestGoldenMismatchFailsRun checks that a wrong golden value fails the
// timed loop: the same pass the benchmark times, against a tampered
// golden result.
func TestGoldenMismatchFailsRun(t *testing.T) {
	s := &sampler{}
	in, err := setupTable1(1, s)
	if err != nil {
		t.Fatal(err)
	}
	t1 := in.(*table1Inst)
	if len(s.mismatches) > 0 {
		t.Fatalf("clean set-up reported %v", s.mismatches)
	}
	t1.corpus = cheapExprs(t1, 1)
	ge := t1.golden[t1.corpus[0].Name]
	ge.Results = append([]string(nil), ge.Results...)
	ge.Results[0] += "?"
	if err := t1.part(context.Background(), 0, 0, s); err != nil {
		t.Fatal(err)
	}
	if len(s.mismatches) != 1 {
		t.Errorf("tampered golden result gave mismatches %v", s.mismatches)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		EndToEnd   []boundDef `json:"end_to_end"`
		PerLayer   []boundDef `json:"per_layer"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.Name || got[i].Unit != m.Unit || got[i].Better != m.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	setup := spec.EndToEnd[0]
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > setup.Bound {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
}
