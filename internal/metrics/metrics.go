// Package metrics is the observability substrate for long-running
// campaigns: a small registry of named counters, gauges, and latency
// histograms, served as Prometheus text (prometheus.go), its one wire
// format. The paper's authors ran their differential-testing loop
// unattended for weeks (§4.7); this package is what lets our loop answer
// "is it still making progress, and at what rate?" without stopping it.
//
// All instruments are safe for concurrent use by the comparator's worker
// pool; reads (scrapes) never block writers for more than a histogram
// bucket update.
package metrics

import (
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

// histBuckets is the number of exponential latency buckets: bucket 0
// holds observations under 1 µs, bucket i ≥ 1 those in [2^(i-1), 2^i)
// µs, and the last one also everything longer, so the finite edges reach
// 2^36 µs (about 19 h) — wider than any per-expression cap. The
// exposition shows the last bucket only as the +Inf line, so the
// dashboard reads a quantile there as at least 2^36 µs.
const histBuckets = 38

// Histogram records latency observations in exponential buckets.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     time.Duration
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
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// bucketCounts returns a copy of the raw bucket counts plus count and sum —
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
// name{k="v",k2="v2"} with keys sorted — the map key for the instrument
// and (for counters and gauges) the exposition line prefix at once.
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

// RegisterCollector adds a hook that runs before every Prometheus
// scrape (WritePrometheus). Collectors refresh pull-style gauges — queue
// depths, shard occupancy — so instrumented code does not have to update
// them on its hot path. A collector must not scrape the registry itself.
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

// String renders a compact one-line summary of the counters, sorted by
// series key — the progress-report form.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for i, k := range keysOf(r.counters) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, r.counters[k].Value())
	}
	return b.String()
}
