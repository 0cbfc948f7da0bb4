// Command dfbench is dfcheck's end-to-end benchmark. It drives the
// repository only through its public functions, over two workloads that
// each load different layers:
//
//	table1    the Table 1 oracle comparison (precision-table settings)
//	campaign  the n-way testing loop of dfcheck-fuzz
//
// Every output is checked against golden files under testdata/. A run
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash bench/run.sh -workload table1 -seed 1 -seconds 45 -trace 0
//	bash bench/run.sh -workload all -runs 10 -out new.json
//	bash bench/run.sh -compare old.json new.json
//
// With -trace 1 the run replays the workload's inputs one layer call at
// a time instead, reports per-layer metrics, and writes its spans for
// cmd/trace-report. README.md describes every workload and metric.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the length of one run's timed loop; BENCHMARK.json's
// run_seconds matches it.
const defaultSeconds = 45

// childTimeout bounds one child process of -runs: a run must finish in
// well under three minutes, so a hung one is killed rather than waited on.
const childTimeout = 175 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 0, "input seed; 0 selects the workload's reference seed")
	seconds := fs.Float64("seconds", defaultSeconds, "length of each run's timed loop, in seconds")
	traced := fs.Int("trace", 0, "1 replays the workload layer by layer and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans here (default .bench_build/trace-<workload>.json)")
	runs := fs.Int("runs", 0, "run each workload this many times, each in a fresh process with the next seed")
	out := fs.String("out", "", "add the runs to this result file, creating it if missing")
	cmpOld := fs.String("compare", "", "compare result file OLD with NEW (the next argument); exit 1 on a regression")
	regen := fs.Bool("regen-golden", false, "recompute the golden files under testdata/ (takes minutes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "dfbench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "dfbench: -seconds must be positive")
		return 2
	}

	switch {
	case *cmpOld != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "dfbench: usage: -compare OLD NEW")
			return 2
		}
		return compareFiles(*cmpOld, fs.Arg(0), stdout, stderr)
	case *regen:
		if err := regenGolden(stderr); err != nil {
			fmt.Fprintln(stderr, "dfbench:", err)
			return 1
		}
		return 0
	}

	var ws []*workload
	if *wl == "all" {
		ws = workloads
	} else if w := workloadByName(*wl); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "dfbench: unknown workload %q\n", *wl)
		return 2
	}

	if len(ws) == 1 && *runs == 0 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+ws[0].name+".json")
		}
		res, info := runOne(ws[0], *seed, *seconds, *traced == 1, path)
		printInfo(stdout, stderr, res, info)
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runChildren(ws, *seed, *seconds, *traced == 1, *traceOut, max(*runs, 1), *out, stdout, stderr)
}

// printInfo writes a run's diagnostics, then its result as the last line
// of standard output.
func printInfo(stdout, stderr io.Writer, res RunResult, info RunInfo) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "%s seed %d: correct=%t attempted=%d failed=%d\n",
		info.Workload, info.Seed, res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(stderr, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, m := range info.Mismatches {
		fmt.Fprintln(stderr, "  MISMATCH:", m)
	}
	if info.Error != "" {
		fmt.Fprintln(stderr, "  ERROR:", info.Error)
	}
	infoJSON, _ := json.Marshal(info)
	resJSON, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s%s\n%s\n", infoPrefix, infoJSON, resJSON)
}

// runOne sets a workload up, then either measures it (the end-to-end
// metrics) or replays it traced (the per-layer metrics).
func runOne(w *workload, seed int64, seconds float64, traced bool, tracePath string) (RunResult, RunInfo) {
	if seed == 0 {
		seed = w.refSeed
	}
	info := RunInfo{Workload: w.name, Seed: seed, Trace: traced}
	res := RunResult{Metrics: map[string]Metric{}}
	ctx := context.Background()
	s := &sampler{}

	inst, err := timedSetup(w, seed, s)
	if err != nil {
		info.Error = err.Error()
		return res, info
	}
	defer inst.close()

	if traced {
		r := newReplay()
		var report, replayed time.Duration
		report, replayed, err = inst.replay(ctx, r, s)
		if err == nil {
			err = inst.detect(ctx, r, s)
		}
		for name, ds := range s.detects {
			r.set("detect."+name+"_s", medianDuration(ds).Seconds())
		}
		res.Metrics = r.finish(report, replayed)
		if cov := res.Metrics["trace.coverage"].Value; cov < minCoverage {
			s.mismatch("trace coverage %.3f below %.2f", cov, minCoverage)
		}
		if werr := r.writeTrace(tracePath); werr != nil && err == nil {
			err = fmt.Errorf("writing trace: %w", werr)
		}
	} else {
		peak := startRSSPeak()
		err = measure(ctx, w, inst, seed, time.Duration(seconds*float64(time.Second)), s)
		rss := peak.end()
		info.Rounds, info.MeasuredS = s.rounds, s.busy.Seconds()
		info.Samples = len(s.lat)
		info.P50Ms = percentile(s.lat, 5000)
		if info.RulePercentile = tailPercentile(len(s.lat)); info.RulePercentile > 0 {
			info.TailMs = percentile(s.lat, info.RulePercentile)
		}
		var detect float64
		info.DetectS = map[string]float64{}
		for name, ds := range s.detects {
			m := medianDuration(ds).Seconds()
			info.DetectS[name] = m
			info.DetectRuns = len(ds)
			detect += m
		}
		var perS float64
		if s.busy > 0 {
			perS = float64(s.items) / s.busy.Seconds()
		}
		res.Metrics = map[string]Metric{
			"setup_s":     {medianDuration(s.setups).Seconds(), "s"},
			"exprs_per_s": {perS, "1/s"},
			"detect_s":    {detect, "s"},
			"max_rss_mb":  {rss, "MB"},
		}
	}
	for _, d := range s.setups {
		info.SetupS = append(info.SetupS, d.Seconds())
	}
	if err != nil {
		info.Error = err.Error()
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	info.Mismatches = s.mismatches
	res.Correct = err == nil && len(s.mismatches) == 0 && s.attempted > 0
	return res, info
}

// runChildren runs each workload n times, each run in a fresh process of
// this binary so that set-up time and peak memory are the workload's own,
// and prints a summary over runs.
func runChildren(ws []*workload, seed int64, seconds float64, traced bool, traceOut string, n int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "dfbench:", err)
		return 1
	}
	rf := &ResultFile{Machine: thisMachine(), Seconds: seconds}
	if out != "" {
		if old, err := loadResultFile(out); err == nil {
			if old.Machine != rf.Machine {
				fmt.Fprintf(stderr, "dfbench: warning: %s was recorded on %+v\n", out, old.Machine)
			}
			if old.Seconds != seconds {
				fmt.Fprintf(stderr, "dfbench: %s holds %gs runs, not %gs\n", out, old.Seconds, seconds)
				return 2
			}
			rf.Workloads = old.Workloads
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(stderr, "dfbench:", err)
			return 1
		}
	}
	ok := true
	for i := 0; i < n; i++ {
		for _, w := range ws {
			s := seed + int64(i)
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds), "-trace", "0"}
			if traced {
				args[len(args)-1] = "1"
				if traceOut != "" {
					args = append(args, "-trace-out", traceOut)
				}
			}
			t0 := time.Now()
			rec, err := runChild(exe, args, stderr)
			rec.Info.WallS = time.Since(t0).Seconds()
			if err != nil {
				// A run that crashed or timed out stays in the result file,
				// as an incorrect run without metrics, so that -compare
				// counts it against the change.
				fmt.Fprintf(stderr, "dfbench: %s run %d: %v\n", w.name, i, err)
				rec.Info.Workload, rec.Info.Seed, rec.Info.Trace = w.name, s, traced
				rec.Info.Error = err.Error()
				rec.Result = RunResult{}
			}
			if !rec.Result.Correct {
				ok = false
			}
			rf.add(rec)
			fmt.Fprintf(stdout, "%s seed %d: correct=%t %s\n", w.name, rec.Info.Seed, rec.Result.Correct, oneLine(rec.Result))
		}
	}
	printSummary(stdout, rf)
	if out != "" {
		if err := rf.save(out); err != nil {
			fmt.Fprintln(stderr, "dfbench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func runChild(exe string, args []string, stderr io.Writer) (RunRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var rec RunRecord
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if js, ok := strings.CutPrefix(line, infoPrefix); ok {
			if err := json.Unmarshal([]byte(js), &rec.Info); err != nil {
				return rec, fmt.Errorf("bad info line: %w", err)
			}
		} else if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		if runErr != nil {
			return rec, runErr
		}
		return rec, fmt.Errorf("bad result line %q: %w", last, err)
	}
	return rec, nil
}

func oneLine(res RunResult) string {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.4g", k, res.Metrics[k].Value)
	}
	return strings.TrimSpace(b.String())
}

func printSummary(w io.Writer, rf *ResultFile) {
	fmt.Fprintf(w, "\nmachine: %d CPUs (GOMAXPROCS %d), %s, %s, commit %s\n",
		rf.Machine.NProc, rf.Machine.GOMAXPROCS, rf.Machine.CPU, rf.Machine.Go, rf.Machine.Commit)
	for _, name := range rf.workloadNames() {
		wr := rf.Workloads[name]
		fmt.Fprintf(w, "%s: %d run(s)\n", name, len(wr.Runs))
		keys := make([]string, 0, len(wr.Summary))
		for k := range wr.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sm := wr.Summary[k]
			fmt.Fprintf(w, "  %-32s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.2f%%\n",
				k, sm.Median, sm.Unit, sm.Q1, sm.Q3, 100*sm.Spread)
		}
	}
}
