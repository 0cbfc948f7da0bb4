package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format (version 0.0.4) exposition of the registry —
// what a scraper reads off /metricsz. The encoder is deterministic:
// families sort by name, series within a family sort by their canonical
// label string, and histogram buckets ascend by bound, so two scrapes of
// identical state are byte-identical (the golden-file test pins this).
//
// Counters and gauges export as-is. Histograms export the standard
// cumulative triple: `name_bucket{le="<seconds>"}` series over the real
// exponential duration bounds (bucket i of the Histogram covers
// [2^(i-1), 2^i) microseconds), `name_sum` in seconds, and `name_count`.
// Trailing empty buckets are elided — exposition stops at the first
// bucket that already holds every observation, then emits `le="+Inf"` —
// which keeps 38-bucket histograms from dominating the scrape while
// staying cumulative and monotone. One boundary nit is inherited from
// the internal [lo, hi) buckets: an observation of exactly 2^i µs lands
// in the bucket whose `le` is 2^(i+1) µs, one bucket above the tightest
// `le` that would admit it. The dashboard (internal/ops) reads its
// quantiles off these lines as the upper edge of the bucket holding the
// rank, an overestimate by at most 2x, which bounds the nit's error too.

// formatLe renders a bucket's upper bound in seconds ("1e-06",
// "0.004096", "68719.476736").
func formatLe(bucket int) string {
	us := uint64(1) << uint(bucket)
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}

// promSeries renders one sample line: the family name, the sorted label
// pairs plus any extra pairs (already escaped where needed), and the
// value. With no labels at all, the braces are omitted, matching
// canonical Prometheus output.
func promSeries(b *strings.Builder, family, suffix string, labels []labelPair, extra []labelPair, value string) {
	b.WriteString(family)
	b.WriteString(suffix)
	if len(labels)+len(extra) > 0 {
		b.WriteByte('{')
		n := 0
		for _, p := range append(append([]labelPair{}, labels...), extra...) {
			if n > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.K)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(p.V))
			b.WriteString(`"`)
			n++
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// WritePrometheus encodes every instrument in Prometheus text exposition
// format v0.0.4, running the registered collectors first so pull-style
// gauges are fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
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
	meta := make(map[string]seriesMeta, len(r.meta))
	for k, v := range r.meta {
		meta[k] = v
	}
	r.mu.Unlock()

	metaFor := func(key string) seriesMeta {
		m := meta[key]
		if m.family == "" {
			m.family = key // pre-labels series; the key is the bare name
		}
		return m
	}

	var b strings.Builder
	writeFamilies(&b, "counter", keysOf(counters), metaFor, func(key string, m seriesMeta) {
		promSeries(&b, m.family, "", m.labels, nil, strconv.FormatInt(counters[key].Value(), 10))
	})
	writeFamilies(&b, "gauge", keysOf(gauges), metaFor, func(key string, m seriesMeta) {
		promSeries(&b, m.family, "", m.labels, nil, strconv.FormatInt(gauges[key].Value(), 10))
	})
	writeFamilies(&b, "histogram", keysOf(hists), metaFor, func(key string, m seriesMeta) {
		writeHistogram(&b, m, hists[key])
	})
	_, err := io.WriteString(w, b.String())
	return err
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeFamilies orders series by (family, series key) — NOT by raw
// series key, under which "foo_bar" would interleave between "foo" and
// "foo{...}" and split the foo family in two — emits one `# TYPE` line
// per family, then each series via emit.
func writeFamilies(b *strings.Builder, typ string, keys []string, metaFor func(string) seriesMeta, emit func(key string, m seriesMeta)) {
	sort.SliceStable(keys, func(i, j int) bool {
		fi, fj := metaFor(keys[i]).family, metaFor(keys[j]).family
		if fi != fj {
			return fi < fj
		}
		return keys[i] < keys[j]
	})
	lastFamily := ""
	for _, key := range keys {
		m := metaFor(key)
		if m.family != lastFamily {
			fmt.Fprintf(b, "# TYPE %s %s\n", m.family, typ)
			lastFamily = m.family
		}
		emit(key, m)
	}
}

// writeHistogram emits the cumulative _bucket/_sum/_count triple for one
// histogram series.
func writeHistogram(b *strings.Builder, m seriesMeta, h *Histogram) {
	buckets, count, sum := h.bucketCounts()
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += buckets[i]
		promSeries(b, m.family, "_bucket", m.labels,
			[]labelPair{{"le", formatLe(i)}}, strconv.FormatInt(cum, 10))
		if cum == count {
			break
		}
	}
	promSeries(b, m.family, "_bucket", m.labels,
		[]labelPair{{"le", "+Inf"}}, strconv.FormatInt(count, 10))
	promSeries(b, m.family, "_sum", m.labels, nil,
		strconv.FormatFloat(sum.Seconds(), 'g', -1, 64))
	promSeries(b, m.family, "_count", m.labels, nil,
		strconv.FormatInt(count, 10))
}
