package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/factsvc"
	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// newOpsStack stands up the full serving stack in-process: a real fact
// service publishing into a shared registry, the slow log, health, and
// the ops endpoints on an httptest server — the same wiring the
// dfcheck-fuzz -serve mode uses.
func newOpsStack(t *testing.T) *httptest.Server {
	t.Helper()
	reg := metrics.NewRegistry()
	slow := metrics.NewSlowLog(8)
	cache := rescache.New()
	svc, err := factsvc.New(factsvc.Config{
		Workers: 2,
		Metrics: reg,
		SlowLog: slow,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []factsvc.Fact, error) {
			cache.Put(rescache.Key{Expr: "probe", Analysis: "kb"}, rescache.Entry{})
			cache.Get(rescache.Key{Expr: "probe", Analysis: "kb"})
			return 1, []factsvc.Fact{{Analysis: "non-zero", Fact: "true"}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	CollectCache(reg, cache)
	health := NewHealth()
	mux := http.NewServeMux()
	mux.Handle("/v1/facts", svc.Handler())
	(&Server{Registry: reg, Health: health, Slow: slow}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	health.Ready()
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeModeScrape is the end-to-end acceptance test: start serve
// mode in-process, push real traffic through /v1/facts, scrape
// /metricsz, and round-trip a counter, a labeled gauge, and a histogram
// whose buckets are cumulative and monotone.
func TestServeModeScrape(t *testing.T) {
	ts := newOpsStack(t)

	// Real traffic: a batch with an intra-batch duplicate.
	body := `{"exprs": ["%x:i8 = var\n%0:i8 = add 1:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = add 1:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = add 2:i8, %x\ninfer %0"]}`
	resp, err := http.Post(ts.URL+"/v1/facts", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts status = %d", resp.StatusCode)
	}

	code, text := get(t, ts.URL+"/metricsz")
	if code != http.StatusOK {
		t.Fatalf("/metricsz status = %d", code)
	}

	// Counter round-trip: 3 submissions.
	if !strings.Contains(text, "factsvc_exprs 3") {
		t.Fatalf("counter did not round-trip:\n%s", grepLines(text, "factsvc_exprs"))
	}
	// Labeled gauge from the collector: per-shard cache occupancy —
	// presence and parseability are the contract.
	if m := regexp.MustCompile(`(?m)^rescache_shard_entries\{shard="0"\} (\d+)$`).FindStringSubmatch(text); m == nil {
		t.Fatalf("labeled shard gauge missing:\n%s", grepLines(text, "shard_entries"))
	}
	// Labeled cache gauge: the probe traffic produced one hit.
	if !strings.Contains(text, `rescache_shard_hits{shard=`) {
		t.Fatalf("per-shard cache gauges missing:\n%s", grepLines(text, "rescache"))
	}

	// Histogram round-trip: cumulative monotone buckets ending at +Inf
	// == _count, for the outcome-labeled solve latency.
	bucketRe := regexp.MustCompile(`(?m)^factsvc_solve_latency_bucket\{outcome="solved",le="([^"]+)"\} (\d+)$`)
	matches := bucketRe.FindAllStringSubmatch(text, -1)
	if len(matches) < 2 {
		t.Fatalf("solved-outcome histogram buckets missing:\n%s", grepLines(text, "solve_latency"))
	}
	prev := int64(-1)
	var inf int64
	for _, m := range matches {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %v", matches)
		}
		prev = v
		if m[1] == "+Inf" {
			inf = v
		}
	}
	countRe := regexp.MustCompile(`(?m)^factsvc_solve_latency_count\{outcome="solved"\} (\d+)$`)
	cm := countRe.FindStringSubmatch(text)
	if cm == nil {
		t.Fatalf("histogram _count missing:\n%s", grepLines(text, "solve_latency"))
	}
	// The stub solve sits behind no dedup, so each of the 3 expressions
	// is solved (dedup lives in the comparator's cache and flight).
	if count, _ := strconv.ParseInt(cm[1], 10, 64); count != inf || count != 3 {
		t.Fatalf("_count = %d, +Inf bucket = %d, want both 3 (one solve per expression)", count, inf)
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// TestReadinessLifecycle: /readyz is 503 before Ready, 200 after, and
// 503 with the drain reason during shutdown — the flip a rolling
// restart relies on.
func TestReadinessLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	health := NewHealth()
	mux := http.NewServeMux()
	(&Server{Registry: reg, Health: health}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("before Ready: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("liveness must not gate on readiness: %d", code)
	}
	health.Ready()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("after Ready: %d", code)
	}
	health.NotReady("draining: SIGINT received")
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("during drain: %d %q", code, body)
	}
}

// TestDashboardSelfContained: the dashboard page ships everything
// inline — any external fetch would break on an air-gapped host — and
// reads only the scrape, the slow log and readiness; there is no event
// stream.
func TestDashboardSelfContained(t *testing.T) {
	ts := newOpsStack(t)
	code, body := get(t, ts.URL+"/dashboardz")
	if code != http.StatusOK {
		t.Fatalf("/dashboardz status = %d", code)
	}
	if code, _ := get(t, ts.URL+"/eventsz"); code != http.StatusNotFound {
		t.Fatalf("/eventsz status = %d, want 404", code)
	}
	for _, want := range []string{"<!doctype html>", `"/metricsz"`, `"/slowz"`, `"/readyz"`, "prefers-color-scheme"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "src=", "href="} {
		if strings.Contains(body, banned) {
			t.Fatalf("dashboard references an external asset (%q)", banned)
		}
	}
}

func TestSlowzServesRing(t *testing.T) {
	reg := metrics.NewRegistry()
	slow := metrics.NewSlowLog(4)
	slow.Note(metrics.SlowEntry{Hash: "00000000deadbeef", Op: "mul", Width: 32, Elapsed: 5 * time.Millisecond})
	mux := http.NewServeMux()
	(&Server{Registry: reg, Slow: slow}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, body := get(t, ts.URL+"/slowz")
	if code != http.StatusOK {
		t.Fatalf("/slowz status = %d", code)
	}
	var entries []metrics.SlowEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Hash != "00000000deadbeef" {
		t.Fatalf("slowz = %s", body)
	}
}

// TestCollectCacheAggregates checks the derived totals the dashboard
// tiles read.
func TestCollectCacheAggregates(t *testing.T) {
	reg := metrics.NewRegistry()
	cache := rescache.New()
	CollectCache(reg, cache)
	for i := 0; i < 10; i++ {
		k := rescache.Key{Expr: fmt.Sprintf("e%d", i)}
		cache.Put(k, rescache.Entry{})
		cache.Get(k)                                               // hit
		cache.Get(rescache.Key{Expr: "missing", Budget: int64(i)}) // miss
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("rescache_entries").Value(); got != 10 {
		t.Fatalf("rescache_entries = %d, want 10", got)
	}
	if got := reg.Gauge("rescache_hit_rate_bp").Value(); got != 5000 {
		t.Fatalf("rescache_hit_rate_bp = %d, want 5000 (50%%)", got)
	}
}
