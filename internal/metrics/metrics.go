// Package metrics is the observability substrate for long-running
// campaigns: a small registry of named counters, gauges, and latency
// histograms, snapshotable as JSON and served as Prometheus text. The
// paper's authors ran their differential-testing loop unattended for
// weeks (§4.7); this package is what lets our loop answer "is it still
// making progress, and at what rate?" without stopping it.
//
// All instruments are safe for concurrent use by the comparator's worker
// pool; reads (snapshots) never block writers for more than a histogram
// bucket update.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (delta < 0 is a programming error
// but is not checked on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (e.g. busy workers).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential latency buckets: bucket i
// holds observations in [2^i, 2^(i+1)) microseconds, so the histogram
// spans 1µs to ~2×10^5 s — wider than any per-expression cap.
const histBuckets = 38

// Histogram records latency observations in exponential buckets.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	b := 0
	if us > 0 {
		b = int(math.Log2(float64(us))) + 1
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.mu.Lock()
	h.buckets[b]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time summary of a histogram. The
// quantiles are streaming estimates read off the exponential buckets
// (upper bucket edge, so an overestimate by at most 2x) — cheap enough
// to compute on every scrape of a live service.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Mean returns the average observation, or 0 with no samples.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// quantile returns the upper edge of the bucket holding the q-quantile —
// an overestimate by at most 2×, which is all a progress report needs.
func quantile(buckets *[histBuckets]int64, count int64, q float64) time.Duration {
	if count == 0 {
		return 0
	}
	rank := int64(q * float64(count))
	if rank >= count {
		rank = count - 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen > rank {
			return time.Duration(1<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(1<<uint(histBuckets)) * time.Microsecond
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		P50:   quantile(&h.buckets, h.count, 0.50),
		P90:   quantile(&h.buckets, h.count, 0.90),
		P95:   quantile(&h.buckets, h.count, 0.95),
		P99:   quantile(&h.buckets, h.count, 0.99),
	}
}

// buckets returns a copy of the raw bucket counts plus count and sum —
// what the Prometheus encoder turns into cumulative _bucket series.
func (h *Histogram) bucketCounts() (b [histBuckets]int64, count int64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets, h.count, h.sum
}

// Labels distinguish series of one metric family: a counter named
// "findings" with labels {kind: soundness} and {kind: inconsistent} is
// two independent counters exported under one family name. Label names
// must match Prometheus rules ([a-zA-Z_][a-zA-Z0-9_]*); values are
// arbitrary and escaped on exposition.
type Labels map[string]string

// labelPair is one resolved label, kept sorted by key so series identity
// and exposition order are deterministic.
type labelPair struct{ K, V string }

// seriesMeta records how a series key decomposes, for the Prometheus
// encoder (which must re-expand histograms with an extra "le" label).
type seriesMeta struct {
	family string
	labels []labelPair
}

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// seriesKey canonicalizes (name, labels) into the display form
// name{k="v",k2="v2"} with keys sorted — the map key for the instrument,
// the snapshot key, and (for counters and gauges) the exposition line
// prefix, all at once.
func seriesKey(name string, labels Labels) (string, []labelPair) {
	if len(labels) == 0 {
		return name, nil
	}
	pairs := make([]labelPair, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, labelPair{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].K < pairs[j].K })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.V))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String(), pairs
}

// Registry holds named instruments. Lookups create on first use, so
// instrumented code never needs registration boilerplate. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	meta       map[string]seriesMeta
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		meta:       make(map[string]seriesMeta),
	}
}

// RegisterCollector adds a hook that runs before every Snapshot (and
// therefore before every JSON snapshot, Prometheus scrape, and SSE
// push). Collectors refresh pull-style gauges — queue depths, shard
// occupancy — so instrumented code does not have to update them on its
// hot path. A collector must not call Snapshot itself.
func (r *Registry) RegisterCollector(f func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// collect runs the registered collectors outside the registry lock (they
// look instruments up, which needs the lock).
func (r *Registry) collect() {
	r.mu.Lock()
	cs := make([]func(), len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	for _, f := range cs {
		f()
	}
}

// Counter returns (creating if needed) the named counter. Safe to call
// from the hot path: the instrument should be looked up once and reused,
// but repeated lookups only cost a mutex.
func (r *Registry) Counter(name string) *Counter { return r.CounterL(name, nil) }

// CounterL returns (creating if needed) the counter series with the
// given labels. Hot paths should resolve the series once and reuse it —
// each lookup re-canonicalizes the label set.
func (r *Registry) CounterL(name string, labels Labels) *Counter {
	key, pairs := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.meta[key] = seriesMeta{family: name, labels: pairs}
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeL(name, nil) }

// GaugeL returns (creating if needed) the gauge series with the given
// labels.
func (r *Registry) GaugeL(name string, labels Labels) *Gauge {
	key, pairs := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.meta[key] = seriesMeta{family: name, labels: pairs}
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramL(name, nil) }

// HistogramL returns (creating if needed) the histogram series with the
// given labels.
func (r *Registry) HistogramL(name string, labels Labels) *Histogram {
	key, pairs := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		h = &Histogram{}
		r.histograms[key] = h
		r.meta[key] = seriesMeta{family: name, labels: pairs}
	}
	return h
}

// Snapshot is a point-in-time view of every instrument, ready for JSON.
// Labeled series appear under their full series key, e.g.
// `findings{kind="soundness"}`; unlabeled ones under the bare name.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument, after running the registered
// collectors so pull-style gauges are fresh.
func (r *Registry) Snapshot() Snapshot {
	r.collect()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}

// JSON renders the snapshot with sorted keys (encoding/json sorts map
// keys), indented for the campaign's -metrics file.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// String renders a compact one-line summary of the counters, sorted by
// name — the progress-report form.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for i, k := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, snap.Counters[k])
	}
	return out
}
