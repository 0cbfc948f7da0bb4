package factsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dfcheck/internal/ir"
)

// The HTTP query API: POST /v1/facts with a batch of expressions, get
// the dataflow facts back. The endpoint mounts on the same mux as the
// -http debug server (ops endpoints, pprof), so one listener serves
// queries, metrics, and profiles.
//
// Error discipline: the endpoint never 5xxes. Client mistakes (wrong
// method, bad JSON, oversized batch) are 4xx; a per-expression parse or
// solve failure is reported in that expression's answer while the rest
// of the batch proceeds; saturation is 429 with a Retry-After header
// and per-expression "queue saturated" errors — partial answers are
// still returned, and the cache makes the retry cheap.

// MaxBatch bounds expressions per request; larger batches are a client
// error (split them), not a reason to queue unbounded parse work.
const MaxBatch = 1024

// queryRequest is the POST /v1/facts body.
type queryRequest struct {
	Exprs []string `json:"exprs"`
}

// ExprAnswer is one expression's slot in the response, in submission
// order.
type ExprAnswer struct {
	Expr string `json:"expr"`
	// Hash is the canonical hash (%016x) — the dedup identity; two
	// answers with equal hashes share the comparator's cache lines.
	Hash  string `json:"hash,omitempty"`
	Facts []Fact `json:"facts,omitempty"`
	// ElapsedNs is the time this expression spent in the solve; an
	// answer the cache or the flight supplied takes little of it.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	// Error is set for per-expression failures: parse errors, solve
	// errors, or "queue saturated" under backpressure.
	Error string `json:"error,omitempty"`
}

// queryResponse is the POST /v1/facts response body.
type queryResponse struct {
	Results []ExprAnswer `json:"results"`
	// Rejected counts expressions refused for saturation; when > 0 the
	// status is 429 and Retry-After is set.
	Rejected int `json:"rejected,omitempty"`
}

// Handler returns the /v1/facts handler. Mount with
// mux.Handle("/v1/facts", svc.Handler()).
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(s.serveFacts)
}

func (s *Service) serveFacts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m := s.cfg.Metrics
	m.Counter("factsvc_requests").Inc()
	defer func() { m.Histogram("factsvc_batch_latency").Observe(time.Since(start)) }()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Exprs) == 0 {
		http.Error(w, `empty batch: body must be {"exprs": ["<souper text>", ...]}`, http.StatusBadRequest)
		return
	}
	if len(req.Exprs) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Exprs), MaxBatch), http.StatusBadRequest)
		return
	}

	// Admit in submission order, then answer each admitted expression in
	// its own goroutine; the solve slots bound how many run at once.
	resp := queryResponse{Results: make([]ExprAnswer, len(req.Exprs))}
	var wg sync.WaitGroup
	for i, src := range req.Exprs {
		ans := &resp.Results[i]
		ans.Expr = src
		f, err := ir.Parse(src)
		if err != nil {
			ans.Error = "parse: " + err.Error()
			continue
		}
		if !s.admit() {
			ans.Error = "queue saturated"
			resp.Rejected++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := s.solve(r.Context(), f)
			if err != nil {
				ans.Error = err.Error()
				return
			}
			ans.Hash = fmt.Sprintf("%016x", a.Hash)
			ans.Facts = a.Facts
			ans.ElapsedNs = a.Elapsed.Nanoseconds()
		}()
	}
	wg.Wait()

	status := http.StatusOK
	if resp.Rejected > 0 {
		// Retry-After scales with how many slots are taken right now (see
		// RetryAfterSecs): a transient spike advertises the base backoff,
		// sustained saturation up to 4× it.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		status = http.StatusTooManyRequests
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(resp); err != nil {
		// The client went away mid-write; nothing to serve them.
		m.Counter("factsvc_write_errors").Inc()
	}
}
