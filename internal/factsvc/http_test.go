package factsvc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Solve == nil {
		cfg.Solve = func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			return []Fact{{Analysis: "known bits", Fact: "xxxxxxxx"}}, nil
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func postFacts(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/facts", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeResp(t *testing.T, w *httptest.ResponseRecorder) queryResponse {
	t.Helper()
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	h := newTestService(t, Config{Workers: 1}).Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/facts", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", w.Code)
	}
	if w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q", w.Header().Get("Allow"))
	}

	if w := postFacts(t, h, "{not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", w.Code)
	}
	if w := postFacts(t, h, `{"exprs": []}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", w.Code)
	}
	big, _ := json.Marshal(map[string]any{"exprs": make([]string, MaxBatch+1)})
	if w := postFacts(t, h, string(big)); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", w.Code)
	}
}

// A batch mixing valid, duplicate, and malformed expressions: the valid
// ones are answered, duplicates collapse onto one solve, the malformed
// one gets a per-expression parse error — and the whole thing is 200,
// never a 5xx.
func TestHandlerBatchWithDuplicatesAndParseErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	// The worker holds its solve until the handler has submitted both
	// valid expressions, so the first is still live when its duplicate
	// arrives; an instant solve could retire it first.
	release := make(chan struct{})
	svc := newTestService(t, Config{
		Workers: 1,
		Metrics: reg,
		Solve: func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			<-release
			return []Fact{{Analysis: "known bits", Fact: "xxxxxxxx"}}, nil
		},
	})
	h := svc.Handler()

	body, _ := json.Marshal(map[string][]string{"exprs": {
		exprSrc,
		"%x:i8 = var\ninfer %x %% garbage",
		exprSrc, // exact duplicate of the first
	}})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postFacts(t, h, string(body)) }()
	for deadline := time.Now().Add(10 * time.Second); reg.Snapshot().Counters["factsvc_exprs"] < 2; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("handler did not submit the batch")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	resp := decodeResp(t, w)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Facts) == 0 {
		t.Fatalf("result 0: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "parse") {
		t.Fatalf("result 1 error = %q, want parse error", resp.Results[1].Error)
	}
	if resp.Results[2].Error != "" || len(resp.Results[2].Facts) == 0 {
		t.Fatalf("result 2: %+v", resp.Results[2])
	}
	if resp.Results[0].Hash != resp.Results[2].Hash {
		t.Fatalf("duplicate hashes differ: %q vs %q", resp.Results[0].Hash, resp.Results[2].Hash)
	}
	// Both were submitted while the first was live, so the duplicate
	// must have collapsed onto it.
	if !resp.Results[2].Collapsed {
		t.Fatal("intra-batch duplicate did not collapse")
	}
	if got := reg.Snapshot().Counters["factsvc_inflight_collapsed"]; got != 1 {
		t.Fatalf("factsvc_inflight_collapsed = %d, want 1", got)
	}
}

// Saturation: with a blocked single worker and a full queue, extra
// distinct expressions come back 429 with a Retry-After header, while
// the accepted ones still answer — graceful degradation, not failure.
func TestHandlerSaturationReturns429RetryAfter(t *testing.T) {
	reg := metrics.NewRegistry()
	release := make(chan struct{})
	first := make(chan struct{})
	started := false
	svc := newTestService(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Metrics:    reg,
		RetryAfter: 3 * time.Second,
		Solve: func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			if !started {
				started = true
				close(first)
			}
			<-release
			return []Fact{{Analysis: "non-zero", Fact: "true"}}, nil
		},
	})
	h := svc.Handler()

	// Fill the pipeline: one solving, one queued.
	if _, err := svc.Submit(ir.MustParse("%x:i8 = var\n%0:i8 = add 9:i8, %x\ninfer %0")); err != nil {
		t.Fatal(err)
	}
	<-first // the worker is now stuck in the first solve
	if _, err := svc.Submit(ir.MustParse("%x:i8 = var\n%0:i8 = add 10:i8, %x\ninfer %0")); err != nil {
		t.Fatal(err)
	}

	// The request's expressions cannot be accepted.
	body, _ := json.Marshal(map[string][]string{"exprs": {
		"%x:i8 = var\n%0:i8 = add 11:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = add 12:i8, %x\ninfer %0",
	}})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postFacts(t, h, string(body)) }()
	var w *httptest.ResponseRecorder
	select {
	case w = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("saturated request blocked instead of failing fast")
	}
	close(release)

	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", w.Code, w.Body.String())
	}
	// The queue is completely full (1 queued / capacity 1), so the
	// advertised backoff is the saturation ceiling: base × 4 (see
	// RetryAfterSecs).
	if got := w.Header().Get("Retry-After"); got != "12" {
		t.Fatalf("Retry-After = %q, want \"12\" (4×base at full saturation)", got)
	}
	resp := decodeResp(t, w)
	if resp.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", resp.Rejected)
	}
	for i, r := range resp.Results {
		if !strings.Contains(r.Error, "saturated") {
			t.Fatalf("result %d error = %q, want saturation", i, r.Error)
		}
	}
	if got := reg.Snapshot().Counters["factsvc_rejected"]; got != 2 {
		t.Fatalf("factsvc_rejected = %d, want 2", got)
	}
}
