package factsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
	"dfcheck/internal/trace"
)

func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		base     time.Duration
		queued   int
		capacity int
		want     int
	}{
		{time.Second, 0, 64, 1},            // empty queues → base
		{time.Second, 64, 64, 4},           // full → 4×base
		{time.Second, 32, 64, 3},           // half full → ceil(1×2.5)
		{3 * time.Second, 64, 64, 12},      // full, larger base
		{3 * time.Second, 0, 64, 3},        // empty, larger base
		{0, 10, 64, 2},                     // zero base clamps to 1s before scaling
		{time.Second, 100, 64, 4},          // fill clamps at 1
		{time.Second, 10, 0, 1},            // no capacity info → base
		{10 * time.Minute, 64, 64, 300},    // ceiling cap
		{500 * time.Millisecond, 0, 64, 1}, // sub-second base clamps to 1s
	}
	for _, tc := range cases {
		if got := RetryAfterSecs(tc.base, tc.queued, tc.capacity); got != tc.want {
			t.Errorf("RetryAfterSecs(%v, %d, %d) = %d, want %d",
				tc.base, tc.queued, tc.capacity, tc.want, got)
		}
	}
}

// TestOutcomeHistogramsAndWorkerGauges drives queries through each
// outcome and checks the labeled factsvc_solve_latency series and the
// factsvc_queue_depth gauge, which counts admitted, unfinished queries.
// (The test keeps its name from the per-worker gauges it used to check.)
func TestOutcomeHistogramsAndWorkerGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	svc, release := blockingService(t, reg)
	wait := fillSlots(t, svc)
	if _, err := svc.Query(context.Background(), mustParse(t, exprSrc)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow Query = %v, want ErrSaturated", err)
	}
	if got := reg.Gauge("factsvc_queue_depth").Value(); got != slotsPerWorker {
		t.Fatalf("factsvc_queue_depth = %d with every slot taken, want %d", got, slotsPerWorker)
	}
	close(release)
	wait()

	failing, err := New(Config{
		Workers: 1,
		Metrics: reg,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			return 0, nil, errors.New("boom")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failing.Query(context.Background(), mustParse(t, exprSrc)); err == nil {
		t.Fatal("error solve did not propagate")
	}

	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`factsvc_solve_latency_count{outcome="solved"} %d`, slotsPerWorker),
		`factsvc_solve_latency_count{outcome="saturated"} 1`,
		`factsvc_solve_latency_count{outcome="error"} 1`,
		fmt.Sprintf(`factsvc_latency_count %d`, slotsPerWorker+1),
	} {
		if !strings.Contains("\n"+scrape.String(), "\n"+want+"\n") {
			t.Fatalf("exposition lacks the line %q:\n%s", want, scrape.String())
		}
	}
	if got := reg.Gauge("factsvc_queue_depth").Value(); got != 0 {
		t.Fatalf("factsvc_queue_depth after drain = %d, want 0", got)
	}
}

// TestSlowLogForceSamplesTrace: a solve the slow log admits carries
// slow=1 on its factsvc span; one it turns away does not. (The test
// keeps its name from the span sampling it used to exercise.)
func TestSlowLogForceSamplesTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(&buf)
	slow := metrics.NewSlowLog(1)
	svc, err := New(Config{
		Workers: 1,
		Tracer:  tr,
		SlowLog: slow,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			if trace.FromContext(ctx) == nil {
				return 0, nil, errors.New("solve ctx carries no span")
			}
			if strings.Contains(f.String(), "add 5:i8") {
				time.Sleep(5 * time.Millisecond)
			}
			return stubFacts(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The slow solve fills the one-entry log; the fast one cannot beat it.
	for _, src := range []string{
		"%x:i8 = var\n%0:i8 = add 5:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = add 6:i8, %x\ninfer %0",
	} {
		if _, err := svc.Query(context.Background(), mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	entries := slow.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Elapsed < 5*time.Millisecond || e.Op != "add" || e.Width != 8 || len(e.Hash) != 16 {
		t.Fatalf("slow entry = %+v", e)
	}
	if !strings.Contains(e.Detail, "facts=1") {
		t.Fatalf("slow entry detail = %q", e.Detail)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var spans, slowSpans int
	for _, ev := range evs {
		if ev["ph"] != "X" || ev["name"] != "factsvc" {
			continue
		}
		spans++
		args, _ := ev["args"].(map[string]any)
		if args["slow"] == float64(1) {
			slowSpans++
			if args["hash"] != e.Hash {
				t.Fatalf("slow span hash %v, want %s", args["hash"], e.Hash)
			}
		}
	}
	if spans != 2 || slowSpans != 1 {
		t.Fatalf("%d factsvc spans, %d marked slow; want 2 and 1", spans, slowSpans)
	}
}
