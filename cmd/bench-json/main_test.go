package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArtifact(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchRejectsNonFinite(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8 100 NaN ns/op",
		"BenchmarkX-8 100 +Inf ns/op",
		"BenchmarkX-8 100 -Inf ns/op",
	} {
		if _, err := parseBench(strings.NewReader(line)); err == nil {
			t.Errorf("%q: non-finite value accepted; it would poison the JSON artifact", line)
		}
	}
	got, err := parseBench(strings.NewReader("BenchmarkX-8 100 42.5 ns/op"))
	if err != nil || got["BenchmarkX"]["ns/op"] != 42.5 {
		t.Fatalf("finite line rejected: %v %v", got, err)
	}
}

// TestParseBenchRejectsRepeatedName: go test -count=N prints each
// benchmark N times, and keeping only the last line would drop samples
// without a word.
func TestParseBenchRejectsRepeatedName(t *testing.T) {
	in := "BenchmarkX-8 100 42.5 ns/op\nBenchmarkY-8 10 7 ns/op\nBenchmarkX-8 100 40.1 ns/op\n"
	_, err := parseBench(strings.NewReader(in))
	if err == nil {
		t.Fatal("repeated benchmark accepted; all but its last sample would be dropped")
	}
	if msg := err.Error(); !strings.Contains(msg, "BenchmarkX") || !strings.Contains(msg, "bench/") {
		t.Errorf("error %q should name the benchmark and point to bench/", msg)
	}
	got, err := parseBench(strings.NewReader("BenchmarkX-8 100 42.5 ns/op\nBenchmarkX/sub-8 100 7 ns/op\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("distinct names rejected: %v %v", got, err)
	}
}

func TestCompareArtifactsSpeedup(t *testing.T) {
	old := writeArtifact(t, "old.json", `{"current":{"BenchmarkA":{"ns/op":100}}}`)
	cur := writeArtifact(t, "new.json", `{"current":{"BenchmarkA":{"ns/op":50}}}`)
	var sb strings.Builder
	if err := compareArtifacts(&sb, old, cur, "current"); err != nil {
		t.Fatalf("healthy comparison failed: %v", err)
	}
	if !strings.Contains(sb.String(), "2.00x") {
		t.Fatalf("speedup not reported:\n%s", sb.String())
	}
}

// TestCompareArtifactsMissingBaseline: a benchmark with no baseline entry
// must be marked, not silently skipped, and the comparison must fail so
// CI notices a truncated baseline artifact.
func TestCompareArtifactsMissingBaseline(t *testing.T) {
	old := writeArtifact(t, "old.json", `{"current":{"BenchmarkA":{"ns/op":100}}}`)
	cur := writeArtifact(t, "new.json", `{"current":{"BenchmarkA":{"ns/op":50},"BenchmarkB":{"ns/op":10}}}`)
	var sb strings.Builder
	err := compareArtifacts(&sb, old, cur, "current")
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("missing baseline entry not an error: %v", err)
	}
	if !strings.Contains(sb.String(), "baseline-missing") {
		t.Fatalf("missing baseline not marked:\n%s", sb.String())
	}
}

// TestCompareArtifactsZeroBaseline: a zero (or, via JSON, absent) ns/op
// baseline must never become a +Inf speedup.
func TestCompareArtifactsZeroBaseline(t *testing.T) {
	old := writeArtifact(t, "old.json", `{"current":{"BenchmarkA":{"ns/op":0},"BenchmarkB":{"iterations":5}}}`)
	cur := writeArtifact(t, "new.json", `{"current":{"BenchmarkA":{"ns/op":50},"BenchmarkB":{"ns/op":10}}}`)
	var sb strings.Builder
	err := compareArtifacts(&sb, old, cur, "current")
	if err == nil || !strings.Contains(err.Error(), "2 benchmark(s)") {
		t.Fatalf("unusable baselines not counted: %v", err)
	}
	out := sb.String()
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("non-finite ratio printed:\n%s", out)
	}
	if got := strings.Count(out, "baseline-missing"); got != 2 {
		t.Fatalf("%d baseline-missing markers, want 2:\n%s", got, out)
	}
}

// TestCompareArtifactsGoneIsNotAnError: a benchmark removed in the new
// recording is informational, not a baseline failure.
func TestCompareArtifactsGoneIsNotAnError(t *testing.T) {
	old := writeArtifact(t, "old.json", `{"current":{"BenchmarkA":{"ns/op":100},"BenchmarkB":{"ns/op":10}}}`)
	cur := writeArtifact(t, "new.json", `{"current":{"BenchmarkA":{"ns/op":50}}}`)
	var sb strings.Builder
	if err := compareArtifacts(&sb, old, cur, "current"); err != nil {
		t.Fatalf("gone benchmark failed the comparison: %v", err)
	}
	if !strings.Contains(sb.String(), "gone") {
		t.Fatalf("gone benchmark not listed:\n%s", sb.String())
	}
}

func TestCompareArtifactsMissingSection(t *testing.T) {
	old := writeArtifact(t, "old.json", `{"baseline":{"BenchmarkA":{"ns/op":100}}}`)
	cur := writeArtifact(t, "new.json", `{"current":{"BenchmarkA":{"ns/op":50}}}`)
	var sb strings.Builder
	if err := compareArtifacts(&sb, old, cur, "current"); err == nil {
		t.Fatal("missing section not rejected")
	}
}
