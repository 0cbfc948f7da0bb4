package compare

import (
	"bytes"
	"encoding/json"
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/rescache"
	"dfcheck/internal/trace"
)

// traceSpans runs a comparator over corpus with tracing on and returns
// the parsed span events.
func traceSpans(t *testing.T, c *Comparator, corpus []harvest.Expr) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	c.Tracer = trace.New(&buf)
	c.Run(corpus)
	return spansIn(t, c.Tracer, &buf)
}

// spansIn closes tr, which writes to buf, and returns the complete
// ("X") events of its trace.
func spansIn(t *testing.T, tr *trace.Tracer, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var spans []map[string]any
	for _, ev := range evs {
		if ev["ph"] == "X" {
			spans = append(spans, ev)
		}
	}
	return spans
}

// TestTracedRunConcurrent exercises span emission from the comparator
// worker pool (run under -race in CI): every expression, analysis, and
// query span must land in one well-formed trace with intact parent links.
func TestTracedRunConcurrent(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed: 99, NumExprs: 16, MaxInsts: 4,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 1}},
	})
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 8}
	spans := traceSpans(t, c, corpus)

	byID := map[float64]map[string]any{}
	count := map[string]int{}
	for _, ev := range spans {
		count[ev["cat"].(string)]++
		args := ev["args"].(map[string]any)
		id := args["id"].(float64)
		if byID[id] != nil {
			t.Fatalf("duplicate span id %v", id)
		}
		byID[id] = ev
	}
	if count["batch"] != 1 {
		t.Errorf("got %d root spans, want 1", count["batch"])
	}
	if count["expr"] != len(corpus) {
		t.Errorf("got %d expr spans, want %d", count["expr"], len(corpus))
	}
	// Eight analyses per expression, every one traced.
	if want := len(corpus) * 8; count["analysis"] != want {
		t.Errorf("got %d analysis spans, want %d", count["analysis"], want)
	}
	if count["query"] == 0 {
		t.Errorf("no query spans recorded")
	}
	// Every non-root span's parent must exist, and the chain must reach
	// the root (no orphaned subtrees from the worker pool).
	for _, ev := range spans {
		args := ev["args"].(map[string]any)
		seen := 0
		for cur := ev; ; {
			p, ok := cur["args"].(map[string]any)["parent"].(float64)
			if !ok {
				if cur["cat"] != "batch" {
					t.Fatalf("span %v (%v) chain ends at non-root %v", args["id"], ev["name"], cur["name"])
				}
				break
			}
			cur = byID[p]
			if cur == nil {
				t.Fatalf("span %v has dangling parent %v", args["id"], p)
			}
			if seen++; seen > 10 {
				t.Fatalf("parent chain too deep at span %v", args["id"])
			}
		}
	}
	// Expression spans carry the grouping args trace-report needs.
	for _, ev := range spans {
		if ev["cat"] != "expr" {
			continue
		}
		args := ev["args"].(map[string]any)
		for _, k := range []string{"width", "hash", "key", "queries", "conflicts"} {
			if _, ok := args[k]; !ok {
				t.Errorf("expr span missing %q: %v", k, args)
			}
		}
	}
}

// TestTracedCachedRunMatchesUncached: tracing must not perturb results,
// and a cached run emits at most one expr span per corpus entry.
func TestTracedCachedRunMatchesUncached(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed: 7, NumExprs: 12, MaxInsts: 3,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 1}},
	})
	plain := cleanComparator().Run(corpus)

	cached := cleanComparator()
	cached.Cache = rescache.New()
	spans := traceSpans(t, cached, corpus)
	traced := cached.Run(corpus) // second run: all hits, still well-formed

	for _, a := range harvest.AllAnalyses {
		p, q := plain.Rows[a], traced.Rows[a]
		if p.Same != q.Same || p.OracleMP != q.OracleMP || p.LLVMMP != q.LLVMMP {
			t.Errorf("%s: traced cached run diverged: %+v vs %+v", a, *p, *q)
		}
	}
	exprs := 0
	for _, ev := range spans {
		if ev["cat"] == "expr" {
			exprs++
		}
	}
	if exprs == 0 || exprs > len(corpus) {
		t.Errorf("cached run emitted %d expr spans for %d entries", exprs, len(corpus))
	}
}
