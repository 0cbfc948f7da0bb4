// Package ops is the production observability surface: it mounts the
// operational endpoints — Prometheus exposition, liveness/readiness,
// the self-contained live dashboard, and the slow-solve log — on the
// same mux as the existing debug server (pprof, /v1/facts).
//
// Endpoints:
//
//	/metricsz    Prometheus text format v0.0.4 (scrape target)
//	/healthz     200 while the process is alive (liveness)
//	/readyz      200 once serving, 503 + reason before startup
//	             completes and again while draining after SIGINT
//	/dashboardz  self-contained HTML live dashboard (no external assets)
//	             that polls /metricsz, /slowz and /readyz
//	/slowz       the slow-solve ring as JSON
//
// The package deliberately depends only on metrics and rescache: the
// fact service, campaign, and comparator publish into the shared
// registry, and ops serves whatever the registry holds.
package ops

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// Health tracks the process's readiness lifecycle:
// starting → ready → (optionally) draining. Liveness is implicit — a
// process that can answer /healthz is alive.
type Health struct {
	mu     sync.Mutex
	ready  bool
	reason string
}

// NewHealth returns a not-ready Health with the given startup reason.
func NewHealth() *Health {
	return &Health{reason: "starting"}
}

// Ready marks the process ready to serve.
func (h *Health) Ready() {
	h.mu.Lock()
	h.ready, h.reason = true, ""
	h.mu.Unlock()
}

// NotReady marks the process not ready, with a reason surfaced on
// /readyz (e.g. "draining: SIGINT received").
func (h *Health) NotReady(reason string) {
	h.mu.Lock()
	h.ready, h.reason = false, reason
	h.mu.Unlock()
}

// IsReady reports readiness and, when not ready, the reason.
func (h *Health) IsReady() (bool, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ready, h.reason
}

// Server bundles the state the ops endpoints serve. Zero-value fields
// degrade gracefully: a nil Health reads as always-ready, a nil Slow as
// an empty slow log.
type Server struct {
	Registry *metrics.Registry
	Health   *Health
	Slow     *metrics.SlowLog
}

// Register mounts every ops endpoint on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metricsz", s.serveMetrics)
	mux.HandleFunc("/healthz", s.serveHealth)
	mux.HandleFunc("/readyz", s.serveReady)
	mux.HandleFunc("/dashboardz", s.serveDashboard)
	mux.HandleFunc("/slowz", s.serveSlow)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.Registry == nil {
		return
	}
	if err := s.Registry.WritePrometheus(w); err != nil {
		// The client went away mid-scrape; the next scrape recovers.
		return
	}
}

func (s *Server) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) serveReady(w http.ResponseWriter, r *http.Request) {
	ready, reason := true, ""
	if s.Health != nil {
		ready, reason = s.Health.IsReady()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) serveSlow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	entries := s.Slow.Snapshot()
	if entries == nil {
		entries = []metrics.SlowEntry{}
	}
	_ = json.NewEncoder(w).Encode(entries)
}

func (s *Server) serveDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

// CollectCache registers pull-style per-shard gauges for the result
// cache: occupancy, hits, and misses per stripe plus the aggregate
// hit-rate (in basis points — gauges are integers). Registered as a
// collector so the 64-stripe scan runs per scrape, not per lookup.
func CollectCache(reg *metrics.Registry, cache *rescache.Cache) {
	if reg == nil || cache == nil {
		return
	}
	n := cache.Shards()
	lens := make([]*metrics.Gauge, n)
	hits := make([]*metrics.Gauge, n)
	misses := make([]*metrics.Gauge, n)
	for i := 0; i < n; i++ {
		l := metrics.Labels{"shard": strconv.Itoa(i)}
		lens[i] = reg.GaugeL("rescache_shard_entries", l)
		hits[i] = reg.GaugeL("rescache_shard_hits", l)
		misses[i] = reg.GaugeL("rescache_shard_misses", l)
	}
	gLen := reg.Gauge("rescache_entries")
	gRate := reg.Gauge("rescache_hit_rate_bp")
	reg.RegisterCollector(func() {
		stats := cache.ShardStats()
		total, h, m := 0, uint64(0), uint64(0)
		for i, st := range stats {
			lens[i].Set(int64(st.Len))
			hits[i].Set(int64(st.Hits))
			misses[i].Set(int64(st.Misses))
			total += st.Len
			h += st.Hits
			m += st.Misses
		}
		gLen.Set(int64(total))
		gRate.Set(int64(rescache.Stats{Hits: h, Misses: m}.HitRate() * 10000))
	})
}
