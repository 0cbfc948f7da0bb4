package metrics

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("queries")
			g := r.Gauge("busy")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("queries").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("busy").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestStringSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	if got := r.String(); got != "a=1 b=2" {
		t.Fatalf("String() = %q, want %q", got, "a=1 b=2")
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	r.CounterL("findings", Labels{"kind": "soundness"}).Add(2)
	r.CounterL("findings", Labels{"kind": "inconsistent"}).Add(5)
	r.Counter("findings").Add(1) // the bare series is a third, distinct one
	// Label order in the map must not matter.
	r.GaugeL("depth", Labels{"worker": "0", "queue": "a"}).Set(4)
	if got := r.GaugeL("depth", Labels{"queue": "a", "worker": "0"}).Value(); got != 4 {
		t.Fatalf("label-order-insensitive lookup = %d, want 4", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`findings{kind="soundness"} 2`,
		`findings{kind="inconsistent"} 5`,
		`findings 1`,
		`depth{queue="a",worker="0"} 4`,
	} {
		if !strings.Contains("\n"+b.String(), "\n"+want+"\n") {
			t.Fatalf("exposition lacks the line %q:\n%s", want, b.String())
		}
	}
}

func TestCollectorRunsOnSnapshot(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.RegisterCollector(func() {
		calls++
		r.Gauge("pulled").Set(int64(calls))
	})
	scrape := func() int64 {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		return r.Gauge("pulled").Value()
	}
	if got := scrape(); got != 1 {
		t.Fatalf("collector gauge = %d, want 1", got)
	}
	if got := scrape(); got != 2 {
		t.Fatalf("collector gauge after second scrape = %d, want 2", got)
	}
	if calls != 2 {
		t.Fatalf("collector ran %d times, want 2", calls)
	}
}

// TestHistogramBucketBoundaries pins the exponential bucketing at the
// exact edges: an observation of exactly 2^i microseconds must land in
// the bucket covering [2^i, 2^(i+1)), zero and negative durations in
// bucket 0, and durations past the last edge in the final bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{-time.Second, 0}, // clamped to zero
		{0, 0},
		{500 * time.Nanosecond, 0}, // < 1µs truncates to 0µs
		{time.Microsecond, 1},      // exactly on the first edge
		{2 * time.Microsecond, 2},  // exactly on an edge: [2µs, 4µs)
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{1024 * time.Microsecond, 11},
		{(1 << 36) * time.Microsecond, 37}, // within the last bucket
		{(1 << 37) * time.Microsecond, 37}, // clamped into the last bucket
		{1<<63 - 1, 37},                    // max duration clamps too
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(tc.d)
		buckets, count, _ := h.bucketCounts()
		if count != 1 {
			t.Fatalf("Observe(%v): count = %d", tc.d, count)
		}
		for i, n := range buckets {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.d, i, n, want)
			}
		}
	}
}

func TestEventLogJSONL(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(&sb)
	l.now = func() time.Time { return time.Unix(0, 0) }
	if err := l.Emit("batch", map[string]any{"seed": int64(12345), "exprs": 50}); err != nil {
		t.Fatal(err)
	}
	if err := l.Emit("finding", map[string]any{"expr": "e1"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["event"] != "batch" || rec["seed"] != float64(12345) {
		t.Fatalf("line 0 = %v", rec)
	}
}

func TestEventLogNilIsNoOp(t *testing.T) {
	var l *EventLog
	if err := l.Emit("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestEventLogRetainsFirstError(t *testing.T) {
	w := &failWriter{}
	l := NewEventLog(w)
	if err := l.Emit("a", nil); err == nil {
		t.Fatal("write error not surfaced")
	}
	_ = l.Emit("b", nil)
	_ = l.Emit("c", nil)
	if w.n != 1 {
		t.Fatalf("writer called %d times after failure, want 1", w.n)
	}
	if l.Err() == nil {
		t.Fatal("Err() lost the failure")
	}
}
