package factsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
)

// FuzzFactsHandler posts arbitrary bodies to /v1/facts, answered by a
// stub solve. The handler must neither panic nor answer 5xx; a 200 or a
// 429 carries one result per submitted expression; and every admission
// slot is free again once the request is answered.
func FuzzFactsHandler(f *testing.F) {
	body := func(exprs ...string) []byte {
		data, err := json.Marshal(queryRequest{Exprs: exprs})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	var all []string
	for _, fr := range harvest.PaperFragments {
		f.Add(body(fr.Source))
		all = append(all, fr.Source)
	}
	f.Add(body(all...))
	f.Add(body([]string{}...))
	f.Add([]byte("{not json"))
	over := make([]string, MaxBatch+1)
	for i := range over {
		over[i] = all[i%len(all)]
	}
	f.Add(body(over...))

	reg := metrics.NewRegistry()
	svc, err := New(Config{
		Workers: 1,
		Metrics: reg,
		Solve: func(ctx context.Context, f *ir.Function) (uint64, []Fact, error) {
			return stubFacts(f)
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/facts", bytes.NewReader(data)))
		switch {
		case w.Code >= 500:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		case w.Code == http.StatusOK || w.Code == http.StatusTooManyRequests:
			// The handler decoded the body, so this decode succeeds.
			var req queryRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
				t.Fatalf("status %d for a body that does not decode: %v", w.Code, err)
			}
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("status %d with a response that is not JSON: %v", w.Code, err)
			}
			if len(resp.Results) != len(req.Exprs) {
				t.Fatalf("status %d: %d results for %d expressions", w.Code, len(resp.Results), len(req.Exprs))
			}
		}
		if depth := reg.Gauge("factsvc_queue_depth").Value(); depth != 0 {
			t.Fatalf("factsvc_queue_depth = %d after the answer, want 0", depth)
		}
	})
}
