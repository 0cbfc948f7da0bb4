package metrics_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"dfcheck/internal/metrics"
	"dfcheck/internal/ops"
)

// The dashboard estimates quantiles from the exposition's cumulative
// _bucket lines in JavaScript (internal/ops), so these tests run its
// parser and quantile rule under node, on r's exposition as /metricsz
// serves it.

// cell is one quantile cell the dashboard computes: ns, shown as a lower
// bound when AtLeast is set.
type cell struct {
	NS      int64 `json:"ns"`
	AtLeast bool  `json:"atLeast"`
}

// dashboardCells returns the count and the p50, p95, p99 and max cells
// that the dashboard computes for series. It skips the test when node is
// not installed.
func dashboardCells(t *testing.T, r *metrics.Registry, series string) (int64, map[string]cell) {
	t.Helper()
	node, err := exec.LookPath("node")
	if err != nil {
		t.Skip("node not installed: the dashboard's quantile rule is JavaScript")
	}
	mux := http.NewServeMux()
	(&ops.Server{Registry: r}).Register(mux)
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.String()
	}
	script := regexp.MustCompile(`(?s)<script>(.*?)</script>`).FindStringSubmatch(get("/dashboardz"))
	if script == nil {
		t.Fatal("dashboard has no script block")
	}
	dir := t.TempDir()
	js := filepath.Join(dir, "cells.js")
	scrape := filepath.Join(dir, "scrape.txt")
	if err := os.WriteFile(js, []byte(script[1]+`
const h = parseProm(require("fs").readFileSync(process.argv[2], "utf8")).histograms[process.argv[3]];
const cell = q => { const [ns, atLeast] = quantile(h, q); return {ns, atLeast}; };
console.log(JSON.stringify({count: h.count, cells: {p50: cell(.5), p95: cell(.95), p99: cell(.99), max: cell(1)}}));
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scrape, []byte(get("/metricsz")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(node, js, scrape, series).CombinedOutput()
	if err != nil {
		t.Fatalf("node: %v\n%s", err, out)
	}
	var res struct {
		Count int64
		Cells map[string]cell
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("node output %q: %v", out, err)
	}
	return res.Count, res.Cells
}

// within checks that a cell is an estimate, not a lower bound, in
// [lo, hi].
func within(t *testing.T, name string, got cell, lo, hi time.Duration) {
	t.Helper()
	if d := time.Duration(got.NS); got.AtLeast || d < lo || d > hi {
		t.Errorf("%s = %v (lower bound %v), want an estimate in %v..%v", name, d, got.AtLeast, lo, hi)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.Histogram("latency")
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	count, c := dashboardCells(t, r, "latency")
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	// Bucket upper edges overestimate by at most 2x.
	within(t, "p50", c["p50"], 100*time.Microsecond, 256*time.Microsecond)
	within(t, "p99", c["p99"], 100*time.Millisecond, 256*time.Millisecond)
	within(t, "max", c["max"], 100*time.Millisecond, 200*time.Millisecond)

	// 40 h lies past the last finite edge, 2^36 µs, in the bucket the
	// exposition shows only as +Inf: every cell is the lower bound
	// 2^36 µs, not an estimate.
	r = metrics.NewRegistry()
	r.Histogram("latency").Observe(40 * time.Hour)
	if count, c = dashboardCells(t, r, "latency"); count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	for _, q := range []string{"p50", "p95", "p99", "max"} {
		if want := (cell{NS: int64(time.Microsecond << 36), AtLeast: true}); c[q] != want {
			t.Errorf("40 h %s = %+v, want %+v (≥ 2^36 µs)", q, c[q], want)
		}
	}
}

// TestHistogramP95 also reads a labeled series, whose bucket lines carry
// the le label after the series' own.
func TestHistogramP95(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.HistogramL("lat", metrics.Labels{"outcome": "solved"})
	for i := 0; i < 96; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 4; i++ {
		h.Observe(10 * time.Millisecond)
	}
	_, c := dashboardCells(t, r, `lat{outcome="solved"}`)
	within(t, "p95", c["p95"], 10*time.Microsecond, 32*time.Microsecond)
	within(t, "p99", c["p99"], 10*time.Millisecond, 32*time.Millisecond)
}
