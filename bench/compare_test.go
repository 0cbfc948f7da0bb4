package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func constant(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func TestJudge(t *testing.T) {
	// Ten runs with a 2% spread between quartiles.
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	noisy := []float64{100, 140, 70, 120, 80, 100, 135, 75, 110, 90}
	for _, c := range []struct {
		name         string
		old, new     []float64
		higherBetter bool
		want         string
	}{
		{"same", base, base, false, verdictWithin},
		{"small slowdown", base, scaled(base, 1.03), false, verdictWithin},
		{"slowdown past the bound", base, scaled(base, 1.10), false, verdictWorse},
		{"clear speed-up", base, scaled(base, 0.9), false, verdictBetter},
		{"higher is better", base, scaled(base, 0.9), true, verdictWorse},
		{"throughput gain", base, scaled(base, 1.10), true, verdictBetter},
		{"noise wider than the bound", noisy, scaled(noisy, 1.02), false, verdictUnresolved},
		{"noisy but every run better", noisy, scaled(noisy, 0.4), false, verdictBetter},
		{"noisy and every run worse", noisy, scaled(noisy, 3), false, verdictWorse},
		// Every run of NEW is better, but the medians differ by less than
		// OLD's distance between quartiles: no gain, though not worse.
		{"noisy, every run better, inside the parent's quartiles", noisy, constant(69, 10), false, verdictWithin},
		{"a clear speed-up over too few pairs", base[:5], scaled(base[:5], 0.9), false, verdictWithin},
		{"one pair", base[:1], scaled(base[:1], 0.5), false, verdictWithin},
	} {
		got, _ := judge(c.old, c.new, c.higherBetter, 0.05)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// A gain needs nine wins in ten pairs: a change that is faster in the
// median but loses two pairs is only within the bound.
func TestJudgeNeedsNineOfTenPairs(t *testing.T) {
	old := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	new := []float64{97, 97, 97, 97, 97, 97, 97, 97, 101, 101}
	if got, _ := judge(old, new, false, 0.05); got != verdictWithin {
		t.Errorf("verdict %s, want %s", got, verdictWithin)
	}
	new[8] = 97
	if got, _ := judge(old, new, false, 0.05); got != verdictBetter {
		t.Errorf("verdict %s, want %s", got, verdictBetter)
	}
}

func resultFile(values map[string][]float64, failed int64) *ResultFile {
	rf := &ResultFile{Machine: Machine{NProc: 2}, Seconds: 1}
	n := 0
	for _, xs := range values {
		n = len(xs)
	}
	for i := 0; i < n; i++ {
		res := RunResult{Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]Metric{}}
		for k, xs := range values {
			res.Metrics[k] = Metric{Value: xs[i]}
		}
		rf.add(RunRecord{Info: RunInfo{Workload: "table1", Seed: int64(i)}, Result: res})
	}
	return rf
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	base := []float64{10, 10.1, 9.9, 10, 10, 10.05, 9.95, 10, 10.1, 9.9}
	write := func(name string, rf *ResultFile) string {
		p := filepath.Join(dir, name)
		if err := rf.save(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP := write("old.json", resultFile(map[string][]float64{"detect_s": base}, 0))
	sameP := write("same.json", resultFile(map[string][]float64{"detect_s": base}, 0))
	slowP := write("slow.json", resultFile(map[string][]float64{"detect_s": scaled(base, 1.5)}, 0))
	failP := write("fail.json", resultFile(map[string][]float64{"detect_s": base}, 1))
	goneP := write("gone.json", &ResultFile{Machine: Machine{NProc: 2}, Seconds: 1})
	fewerP := write("fewer.json", resultFile(map[string][]float64{"detect_s": base[:9]}, 0))
	// A run that crashed is kept as an incorrect record without metrics.
	crashed := resultFile(map[string][]float64{"detect_s": base[:9]}, 0)
	crashed.add(RunRecord{Info: RunInfo{Workload: "table1", Seed: 9, Error: "signal: killed"}})
	crashP := write("crash.json", crashed)

	// compareFiles reads BENCHMARK.json from the working directory or
	// its parent, the repository root.
	if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	for _, c := range []struct {
		newP string
		code int
		want string
	}{
		{sameP, 0, verdictWithin},
		{slowP, 1, verdictWorse},
		{failP, 1, "fail_share"},
		{goneP, 1, "missing from NEW"},
		{fewerP, 1, "9 runs in NEW, 10 in OLD"},
		{crashP, 1, "9 values in NEW, 10 in OLD"},
		{crashP, 1, "seed 9 of NEW is incorrect"},
	} {
		var out, errOut bytes.Buffer
		if code := compareFiles(oldP, c.newP, &out, &errOut); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", filepath.Base(c.newP), code, c.code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", filepath.Base(c.newP), c.want, out.String())
		}
	}
}

// TestRunChildrenKeepsCrashedRuns checks that a child run that ends
// without a result is recorded, as an incorrect run, rather than dropped.
// Under go test the child is the test binary, which rejects the
// benchmark's flags and exits at once.
func TestRunChildrenKeepsCrashedRuns(t *testing.T) {
	out := filepath.Join(t.TempDir(), "runs.json")
	var stdout, stderr bytes.Buffer
	if code := runChildren(workloads[:1], 1, 1, false, "", 2, out, &stdout, &stderr); code == 0 {
		t.Error("exit 0 with every run crashed")
	}
	rf, err := loadResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	wr := rf.Workloads[workloads[0].name]
	if wr == nil || len(wr.Runs) != 2 {
		t.Fatalf("result file holds %+v, want 2 runs", rf.Workloads)
	}
	for i, r := range wr.Runs {
		if r.Result.Correct || r.Info.Error == "" || r.Info.Seed != int64(1+i) {
			t.Errorf("run %d recorded as %+v", i, r)
		}
	}
}
