package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// parseEvents unmarshals a Chrome trace JSON array, failing the test on
// malformed output. It is the schema round-trip every test goes through.
func parseEvents(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace output is not a JSON array: %v\n%s", err, data)
	}
	return evs
}

// spanEvents filters out metadata records, leaving the "X" span events.
func spanEvents(evs []map[string]any) []map[string]any {
	var out []map[string]any
	for _, ev := range evs {
		if ev["ph"] == "X" {
			out = append(out, ev)
		}
	}
	return out
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)

	batch := tr.Start(nil, KindBatch, "batch")
	batch.Set("batch", 0)
	expr := batch.Child(KindExpr, "add")
	expr.Set("width", 8)
	expr.Set("hash", "00000000deadbeef")
	q := expr.Child(KindQuery, "feasible")
	q.Set("class", "model-existence")
	q.SetInt("conflicts", int64(3))
	q.End()
	expr.End()
	batch.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	evs := parseEvents(t, buf.Bytes())
	spans := spanEvents(evs)
	if len(spans) != 3 {
		t.Fatalf("got %d span events, want 3:\n%s", len(spans), buf.String())
	}
	// Events are emitted at End, so the leaf comes first.
	byName := map[string]map[string]any{}
	ids := map[float64]bool{}
	for _, ev := range spans {
		name := ev["name"].(string)
		byName[name] = ev
		for _, field := range []string{"cat", "ts", "pid", "tid", "args"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("span %q missing %q", name, field)
			}
		}
		args := ev["args"].(map[string]any)
		id, ok := args["id"].(float64)
		if !ok {
			t.Fatalf("span %q has no numeric id", name)
		}
		if ids[id] {
			t.Errorf("duplicate span id %v", id)
		}
		ids[id] = true
	}
	if cat := byName["feasible"]["cat"]; cat != "query" {
		t.Errorf("leaf cat = %v, want query", cat)
	}
	// Parent links reconstruct the hierarchy.
	qargs := byName["feasible"]["args"].(map[string]any)
	eargs := byName["add"]["args"].(map[string]any)
	bargs := byName["batch"]["args"].(map[string]any)
	if qargs["parent"] != eargs["id"] {
		t.Errorf("query parent = %v, want expr id %v", qargs["parent"], eargs["id"])
	}
	if eargs["parent"] != bargs["id"] {
		t.Errorf("expr parent = %v, want batch id %v", eargs["parent"], bargs["id"])
	}
	if _, ok := bargs["parent"]; ok {
		t.Errorf("root span has a parent: %v", bargs["parent"])
	}
	if qargs["conflicts"].(float64) != 3 {
		t.Errorf("query conflicts = %v, want 3", qargs["conflicts"])
	}
	// Containment: children lie within the parent's [ts, ts+dur].
	within := func(inner, outer map[string]any) bool {
		its, idur := inner["ts"].(float64), inner["dur"].(float64)
		ots, odur := outer["ts"].(float64), outer["dur"].(float64)
		return its >= ots && its+idur <= ots+odur+0.001
	}
	if !within(byName["feasible"], byName["add"]) || !within(byName["add"], byName["batch"]) {
		t.Errorf("span times do not nest:\n%s", buf.String())
	}
	// Expression spans render on their own lane, nested spans inherit it.
	if byName["feasible"]["tid"] != byName["add"]["tid"] {
		t.Errorf("query tid %v != expr tid %v", byName["feasible"]["tid"], byName["add"]["tid"])
	}
	if byName["add"]["tid"] == byName["batch"]["tid"] {
		t.Errorf("expr should not share the batch lane")
	}
}

func TestConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	root := tr.Start(nil, KindBatch, "batch")

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.Child(KindExpr, fmt.Sprintf("w%d-e%d", w, i))
				q := sp.Child(KindQuery, "q")
				q.Set("class", "validity")
				q.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	spans := spanEvents(parseEvents(t, buf.Bytes()))
	want := workers*perWorker*2 + 1
	if len(spans) != want {
		t.Fatalf("got %d span events, want %d", len(spans), want)
	}
	// With at most `workers` expressions alive at once, lane recycling
	// must keep the tid space small (root lane + one per live worker).
	for _, ev := range spans {
		if tid := ev["tid"].(float64); tid > workers {
			t.Errorf("tid %v exceeds worker count %d: lanes are leaking", tid, workers)
		}
	}
}

func TestFileRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	tr, err := NewFile(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sp := tr.Start(nil, KindExpr, "expr")
		sp.Set("i", i)
		sp.End()
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if tr.Rotations() == 0 {
		t.Fatalf("expected rotation under a 2KiB cap")
	}
	files, _ := filepath.Glob(path + "*")
	if len(files) != tr.Rotations()+1 {
		t.Fatalf("got %d files, want %d", len(files), tr.Rotations()+1)
	}
	total := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// Every rolled file must be independently well-formed.
		total += len(spanEvents(parseEvents(t, data)))
	}
	if total != 200 {
		t.Fatalf("got %d spans across %d files, want 200", total, len(files))
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(nil, KindBatch, "x")
	if sp != nil {
		t.Fatalf("nil tracer returned a live span")
	}
	child := sp.Child(KindQuery, "q")
	if child != nil {
		t.Fatalf("nil span returned a live child")
	}
	// All of these must be no-ops, not panics.
	child.Set("k", 1)
	child.End()
	sp.End()
	if sp.Tracer() != nil {
		t.Fatalf("nil span has a tracer")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if tr.Err() != nil || tr.Rotations() != 0 {
		t.Fatalf("nil accessors returned non-zero")
	}
	ctx := NewContext(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatalf("NewContext(nil span) should return ctx unchanged")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("FromContext on bare context should be nil")
	}
}

// TestNilSpanAllocates pins the "near-zero overhead" claim to something
// deterministic: the untraced path allocates nothing, ever. (The timing
// side is BenchmarkNilSpan, compared against BenchmarkSpanEnabled.)
func TestNilSpanAllocates(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		c := sp.Child(KindQuery, "q")
		c.SetInt("conflicts", int64(1))
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("nil span path allocates %v times per op, want 0", allocs)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sp := tr.Start(nil, KindBatch, "b")
	ctx := NewContext(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatalf("FromContext = %v, want the stored span", got)
	}
	sp.End()
	tr.Close()
}

func TestWriteErrorSurfacesOnce(t *testing.T) {
	tr := New(failWriter{})
	// Enough spans to overflow the buffered writer and reach the sink.
	for i := 0; i < 200; i++ {
		sp := tr.Start(nil, KindExpr, "e")
		sp.End()
	}
	tr.Close()
	if tr.Err() == nil {
		t.Fatalf("expected a retained write error")
	}
}

// failWriter rejects every write, exercising the retained-error path the
// way a full disk would.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("disk full")
}

// BenchmarkNilSpan is the untraced hot path: what every solver query pays
// when no -trace flag is given. Compare against BenchmarkSpanEnabled; the
// acceptance bar is that this is within noise of free (single-digit ns,
// zero allocs).
func BenchmarkNilSpan(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sp.Child(KindQuery, "q")
		c.SetInt("conflicts", int64(i))
		c.End()
	}
}

// BenchmarkSpanEnabled is the traced path writing to an in-memory sink,
// for the overhead ratio.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(discard{})
	root := tr.Start(nil, KindBatch, "b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := root.Child(KindQuery, "q")
		c.SetInt("conflicts", int64(i))
		c.End()
	}
	b.StopTimer()
	root.End()
	tr.Close()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestSpanTimestampsMonotonic guards the epoch arithmetic: a span ended
// immediately still has non-negative ts and dur.
func TestSpanTimestampsMonotonic(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sp := tr.Start(nil, KindQuery, "q")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Close()
	spans := spanEvents(parseEvents(t, buf.Bytes()))
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	ts := spans[0]["ts"].(float64)
	dur := spans[0]["dur"].(float64)
	if ts < 0 || dur < 900 {
		t.Fatalf("ts=%v dur=%v, want ts>=0 and dur>=~1000us", ts, dur)
	}
}
