package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// The noise-aware compare of two result files, OLD (the parent) and NEW
// (the change), run alternately with the same settings. Each pair of
// (workload, end-to-end metric) gets one verdict:
//
//	better        at least 10 pairs of runs, NEW wins at least 9 in 10 of
//	              them, and the medians differ by more than OLD's distance
//	              between quartiles
//	worse         NEW's median is worse than OLD's by more than the bound
//	unresolved    the run-to-run spread exceeds the bound, so the medians
//	              cannot show whether the bound holds
//	within-bound  anything else
//
// Spreads wider than the bound are still decided when every run of one
// side reads better than every run of the other. A workload whose NEW
// runs fail a larger share of their operations, or that NEW lacks or has
// fewer runs or values of, is worse too: a change that crashes a run
// must not pass as one that was not measured.

const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// gainShare is the share of pairs a change must win to claim a gain, and
// minPairs the fewest pairs a gain may rest on.
const (
	gainShare = 0.9
	minPairs  = 10
)

// boundDef is one end-to-end metric as BENCHMARK.json states it.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the compare reads.
type benchmarkSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the repository root, found
// from either the root or bench/.
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &spec, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// judge returns the verdict for one metric's runs and NEW's median
// change, as a signed share of OLD's median where positive is worse.
func judge(old, new []float64, higherBetter bool, bound float64) (string, float64) {
	mo, mn := median(old), median(new)
	if mo == 0 || len(old) == 0 || len(new) == 0 {
		return verdictUnresolved, 0
	}
	worse := (mn - mo) / mo
	if higherBetter {
		worse = -worse
	}
	q1, q3 := quartiles(old)
	noisy := math.Max(spread(old), spread(new)) > bound
	switch {
	case worse < 0 && min(len(old), len(new)) >= minPairs && math.Abs(mn-mo) > q3-q1 &&
		winShare(old, new, higherBetter) >= gainShare:
		return verdictBetter, worse
	case noisy && allBetter(old, new, higherBetter) && worse > bound:
		return verdictWorse, worse
	case noisy && allBetter(new, old, higherBetter):
		return verdictWithin, worse
	case noisy:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictWorse, worse
	}
	return verdictWithin, worse
}

// allBetter reports whether every value of a reads better than every
// value of b.
func allBetter(a, b []float64, higherBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if higherBetter && x <= y || !higherBetter && x >= y {
				return false
			}
		}
	}
	return true
}

// winShare is the share of runs, paired by index, in which NEW reads
// better than OLD; ties count for neither side but stay in the count.
func winShare(old, new []float64, higherBetter bool) float64 {
	n := min(len(old), len(new))
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if higherBetter && new[i] > old[i] || !higherBetter && new[i] < old[i] {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// failShare is the share of attempted operations that failed over a
// workload's runs.
func failShare(wr *WorkloadRuns) float64 {
	var att, failed int64
	for _, r := range wr.Runs {
		att += r.Result.Attempted
		failed += r.Result.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 2
	}
	oldRF, err := loadResultFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 2
	}
	newRF, err := loadResultFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 2
	}
	if oldRF.Machine != newRF.Machine {
		fmt.Fprintf(stderr, "dfbench: warning: the files come from different machines or commits:\n  %+v\n  %+v\n", oldRF.Machine, newRF.Machine)
	}
	if oldRF.Seconds != newRF.Seconds {
		fmt.Fprintf(stderr, "dfbench: the files were run for %gs and %gs; compare runs of equal length\n", oldRF.Seconds, newRF.Seconds)
		return 2
	}
	regressed := false
	fmt.Fprintf(stdout, "%-10s %-12s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, name := range oldRF.workloadNames() {
		ow, nw := oldRF.Workloads[name], newRF.Workloads[name]
		if nw == nil {
			fmt.Fprintf(stdout, "%-10s missing from NEW  %s\n", name, verdictWorse)
			regressed = true
			continue
		}
		if len(nw.Runs) < len(ow.Runs) {
			fmt.Fprintf(stdout, "%-10s %d runs in NEW, %d in OLD  %s\n", name, len(nw.Runs), len(ow.Runs), verdictWorse)
			regressed = true
		}
		for _, m := range spec.EndToEnd {
			om, nm := ow.Summary[m.Name], nw.Summary[m.Name]
			if len(om.Values) == 0 {
				continue
			}
			if len(nm.Values) < len(om.Values) {
				fmt.Fprintf(stdout, "%-10s %-12s %d values in NEW, %d in OLD  %s\n", name, m.Name, len(nm.Values), len(om.Values), verdictWorse)
				regressed = true
				continue
			}
			v, change := judge(om.Values, nm.Values, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-10s %-12s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				name, m.Name, om.Median, nm.Median, 100*change,
				100*math.Max(om.Spread, nm.Spread), 100*m.Bound, v)
		}
		of, nf := failShare(ow), failShare(nw)
		v := verdictWithin
		if nf > of {
			v, regressed = verdictWorse, true
		}
		fmt.Fprintf(stdout, "%-10s %-12s %14.6g %14.6g %9s %8s %7s  %s\n", name, "fail_share", of, nf, "", "", "0", v)
		for _, r := range nw.Runs {
			if !r.Result.Correct {
				fmt.Fprintf(stdout, "%-10s seed %d of NEW is incorrect: %v %s\n", name, r.Info.Seed, r.Info.Mismatches, r.Info.Error)
				regressed = true
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}
