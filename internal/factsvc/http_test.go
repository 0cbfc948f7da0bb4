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
		cfg.Solve = func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			return stubFacts(f)
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

// A batch mixing valid, duplicate, malformed and poisonous expressions:
// the valid ones are answered, the duplicates under one canonical hash,
// the malformed one gets a per-expression parse error, the one whose
// solve panics gets that as its error — and the whole thing is 200,
// never a 5xx.
func TestHandlerBatchWithDuplicatesAndParseErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newTestService(t, Config{
		Workers: 2,
		Metrics: reg,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			if f.Root.Op.String() == "mul" {
				panic("poisoned")
			}
			return stubFacts(f)
		},
	}).Handler()

	body, _ := json.Marshal(map[string][]string{"exprs": {
		exprSrc,
		"%x:i8 = var\ninfer %x %% garbage",
		exprSrc,                                 // exact duplicate of the first
		strings.ReplaceAll(exprSrc, "%x", "%y"), // alpha-variant
		"%x:i8 = var\n%0:i8 = mul 3:i8, %x\ninfer %0",
	}})
	w := postFacts(t, h, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	resp := decodeResp(t, w)
	if len(resp.Results) != 5 {
		t.Fatalf("%d results, want 5", len(resp.Results))
	}
	if r := resp.Results[4]; !strings.Contains(r.Error, "panicked") || len(r.Facts) != 0 {
		t.Fatalf("result 4 = %+v, want the solve's panic as its error", r)
	}
	if !strings.Contains(resp.Results[1].Error, "parse") || resp.Results[1].Hash != "" {
		t.Fatalf("result 1 = %+v, want a parse error and no hash", resp.Results[1])
	}
	for _, i := range []int{0, 2, 3} {
		r := resp.Results[i]
		if r.Error != "" || len(r.Facts) == 0 || len(r.Hash) != 16 {
			t.Fatalf("result %d: %+v", i, r)
		}
		if r.Hash != resp.Results[0].Hash {
			t.Fatalf("result %d hash %q, want %q (same canonical form)", i, r.Hash, resp.Results[0].Hash)
		}
	}
	if got := reg.Counter("factsvc_exprs").Value(); got != 4 {
		t.Fatalf("factsvc_exprs = %d, want 4 (parse errors are not admitted)", got)
	}
	if got := reg.Counter("factsvc_errors").Value(); got != 1 {
		t.Fatalf("factsvc_errors = %d, want 1", got)
	}
	if got := reg.Counter("factsvc_requests").Value(); got != 1 {
		t.Fatalf("factsvc_requests = %d, want 1", got)
	}
}

// Saturation: with every slot of a one-worker service taken behind a
// blocked solve, a request's expressions come back 429 with a
// Retry-After at 4× the base backoff (the slots are full) — graceful
// degradation, not failure.
func TestHandlerSaturationReturns429RetryAfter(t *testing.T) {
	reg := metrics.NewRegistry()
	svc, release := blockingService(t, reg)
	wait := fillSlots(t, svc)

	body, _ := json.Marshal(map[string][]string{"exprs": {
		"%x:i8 = var\n%0:i8 = add 11:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = add 12:i8, %x\ninfer %0",
	}})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postFacts(t, svc.Handler(), string(body)) }()
	var w *httptest.ResponseRecorder
	select {
	case w = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("saturated request blocked instead of failing fast")
	}
	close(release)
	wait()

	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After = %q, want \"4\" (4×base at full saturation)", got)
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
	if got := reg.Counter("factsvc_rejected").Value(); got != 2 {
		t.Fatalf("factsvc_rejected = %d, want 2", got)
	}
}
