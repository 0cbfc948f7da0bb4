package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/trace"
)

// writeTrace runs a real traced comparison into a (size-capped, hence
// possibly rotated) trace file and returns its path — the same pipeline a
// user profiles, not a synthetic fixture.
func writeTrace(t *testing.T, maxBytes int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := trace.NewFile(path, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	corpus := harvest.Generate(harvest.Config{
		Seed: 11, NumExprs: 12, MaxInsts: 4,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 1}},
	})
	c := &compare.Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 4, Tracer: tr}
	c.RunContext(context.Background(), corpus)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportAggregatesTrace(t *testing.T) {
	path := writeTrace(t, 0)
	var out bytes.Buffer
	if err := run([]string{"-top", "3", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"By analysis:", "By root opcode:", "By bitwidth:", "By query class:",
		"known bits", "demanded bits", "validity", "Top 3 expressions",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestReportJSONReconciles(t *testing.T) {
	path := writeTrace(t, 0)
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if rep.WallUs <= 0 {
		t.Fatalf("no wall clock recorded: %+v", rep)
	}
	// Expression time must reconcile with wall clock: every expr span
	// nests inside the root, and with 4 workers total expression time may
	// exceed wall but never by more than the worker count.
	if rep.ExprUs <= 0 || rep.ExprUs > 4*rep.WallUs {
		t.Fatalf("expr time %.0fus does not reconcile with wall %.0fus", rep.ExprUs, rep.WallUs)
	}
	// Per-analysis time is a partition of expression time.
	var analysisUs float64
	for _, b := range rep.ByAnalysis {
		analysisUs += b.Us
	}
	if analysisUs > rep.ExprUs*1.01 {
		t.Fatalf("analysis time %.0fus exceeds expression time %.0fus", analysisUs, rep.ExprUs)
	}
	if len(rep.ByAnalysis) != 8 {
		t.Fatalf("got %d analysis rows, want 8: %+v", len(rep.ByAnalysis), rep.ByAnalysis)
	}
	// Opcode and width tables partition the same expr spans: equal totals.
	var opUs, widthUs float64
	for _, b := range rep.ByOpcode {
		opUs += b.Us
	}
	for _, b := range rep.ByWidth {
		widthUs += b.Us
	}
	// Summation order differs per table, so compare within float slack.
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(a, b) }
	if !close(opUs, rep.ExprUs) || !close(widthUs, rep.ExprUs) {
		t.Fatalf("opcode %.0f / width %.0f totals disagree with expr total %.0f", opUs, widthUs, rep.ExprUs)
	}
	// Conflicts from query spans roll up into analysis rows.
	var rollup int64
	for _, b := range rep.ByAnalysis {
		rollup += b.Conflicts
	}
	if rollup != rep.Conflicts {
		t.Fatalf("analysis conflict rollup %d != query total %d", rollup, rep.Conflicts)
	}
	for _, ec := range rep.TopExprs {
		if ec.Hash == "" || ec.Key == "" {
			t.Fatalf("top expression missing hash/key: %+v", ec)
		}
	}
}

func TestReportReadsRotatedFiles(t *testing.T) {
	path := writeTrace(t, 16*1024) // small cap: forces rotation mid-run
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Files < 2 {
		t.Fatalf("expected rotated siblings to be read, got %d file(s)", rep.Files)
	}
	// Spans split across files must still resolve their cross-file
	// parent links: the rollup invariant only holds if they do.
	var rollup int64
	for _, b := range rep.ByAnalysis {
		rollup += b.Conflicts
	}
	if rollup != rep.Conflicts {
		t.Fatalf("cross-file conflict rollup broken: %d != %d", rollup, rep.Conflicts)
	}
}

func TestReportErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("no error for missing trace files")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "absent.json")}, &out); err == nil {
		t.Fatal("no error for an absent file")
	}
}

// TestWallClockIsRootUnion: a campaign's batch spans are roots that may
// overlap in time, so the wall clock is the union of their intervals,
// not their sum. Nested batch spans do not count.
func TestWallClockIsRootUnion(t *testing.T) {
	root := func(ts, dur float64) *span {
		return &span{event: event{Cat: "batch", Ph: "X", Ts: ts, Dur: dur}}
	}
	nested := root(2, 30)
	nested.hasParent = true
	for _, tc := range []struct {
		spans []*span
		want  float64
	}{
		{[]*span{root(0, 10), root(5, 10)}, 15},
		{[]*span{root(5, 10), root(0, 10)}, 15},
		{[]*span{root(0, 10), root(2, 3), nested}, 10},
		{[]*span{root(0, 10), root(20, 5)}, 15},
		{[]*span{root(0, 10), root(10, 5)}, 15},
		{nil, 0},
	} {
		var desc []string
		for _, s := range tc.spans {
			desc = append(desc, fmt.Sprintf("[%g,%g) nested=%t", s.Ts, s.Ts+s.Dur, s.hasParent))
		}
		if got := aggregate(tc.spans, 10).WallUs; got != tc.want {
			t.Errorf("spans %v: wall %v us, want %v", desc, got, tc.want)
		}
	}
}
