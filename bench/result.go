package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// RunResult is the JSON object a single run prints as its last line.
type RunResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// infoPrefix marks the stdout line, printed just before the result, that
// carries a run's diagnostics (sample counts, percentile levels, the
// golden mismatches) for -runs to keep.
const infoPrefix = "# info "

// RunInfo is a run's diagnostics, kept in result files beside its
// metrics.
type RunInfo struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Samples is the number of unit latencies the timed loop took (one
	// per expression compared in table1, one per batch in campaign);
	// P50Ms is their median and TailMs the highest percentile the
	// percentile rule allows for Samples, RulePercentile (in hundredths
	// of a percent).
	Samples        int     `json:"samples"`
	P50Ms          float64 `json:"p50_ms"`
	RulePercentile int     `json:"rule_percentile"`
	TailMs         float64 `json:"tail_ms"`
	// Rounds is the number of whole rounds the timed loop ran, and
	// MeasuredS the wall clock of their work, detection left out.
	Rounds    int       `json:"rounds"`
	MeasuredS float64   `json:"measured_s"`
	SetupS    []float64 `json:"setup_s"`
	// DetectS is each seeded bug's median detection time over the
	// DetectRuns detections of the run; detect_s is their sum.
	DetectS    map[string]float64 `json:"detect_s"`
	DetectRuns int                `json:"detect_runs"`
	// WallS is the whole run, process start to exit, as -runs timed it.
	WallS      float64  `json:"wall_s,omitempty"`
	Mismatches []string `json:"mismatches,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// Machine records where a result file's runs were taken.
type Machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func thisMachine() Machine {
	return Machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the current
// directory or its parent, without running git. A checkout with no .git
// reports "unknown".
func gitCommit() string {
	for _, dir := range []string{".git", filepath.Join("..", ".git")} {
		head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
		if err != nil {
			continue
		}
		ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !ok {
			return strings.TrimSpace(string(head))
		}
		if id, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, name, ok := strings.Cut(line, " "); ok && name == ref {
					return id
				}
			}
		}
	}
	return "unknown"
}

// rssMB reads the process's resident set in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rssPeak samples the resident set every few milliseconds from start
// until stop, which returns the peak. It covers the timed loop only: the
// set-up and bug-detection phases before it allocate in bursts whose
// peak depends on when the collector happens to run.
type rssPeak struct {
	stop chan struct{}
	done chan float64
}

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- max(peak, rssMB())
				return
			case <-tk.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return p
}

func (p *rssPeak) end() float64 {
	close(p.stop)
	return <-p.done
}

// RunRecord is one run as a result file keeps it.
type RunRecord struct {
	Info   RunInfo   `json:"info"`
	Result RunResult `json:"result"`
}

// Summary is one metric over every run of a workload.
type Summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

// WorkloadRuns is every run of one workload in a result file.
type WorkloadRuns struct {
	Runs    []RunRecord        `json:"runs"`
	Summary map[string]Summary `json:"summary"`
}

// ResultFile holds every sample of a set of runs: each run's values and,
// per metric, the median and quartiles over runs.
type ResultFile struct {
	Machine   Machine                  `json:"machine"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*WorkloadRuns `json:"workloads"`
}

func (rf *ResultFile) add(rec RunRecord) {
	if rf.Workloads == nil {
		rf.Workloads = make(map[string]*WorkloadRuns)
	}
	name := rec.Info.Workload
	if rec.Info.Trace {
		name += "+trace"
	}
	wr := rf.Workloads[name]
	if wr == nil {
		wr = &WorkloadRuns{}
		rf.Workloads[name] = wr
	}
	wr.Runs = append(wr.Runs, rec)
	wr.summarize()
}

func (wr *WorkloadRuns) summarize() {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range wr.Runs {
		for k, m := range r.Result.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	wr.Summary = make(map[string]Summary, len(vals))
	for k, xs := range vals {
		q1, q3 := quartiles(xs)
		wr.Summary[k] = Summary{Unit: units[k], Values: xs, Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs)}
	}
}

func loadResultFile(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func (rf *ResultFile) save(path string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// workloadNames returns the result file's workloads in a stable order.
func (rf *ResultFile) workloadNames() []string {
	names := make([]string, 0, len(rf.Workloads))
	for k := range rf.Workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// sampler collects one timed loop's operations and detections; it is
// safe for the concurrent workers of a loop.
type sampler struct {
	mu        sync.Mutex
	lat       []time.Duration
	items     int64
	busy      time.Duration
	rounds    int
	setups    []time.Duration
	attempted int64
	failed    int64
	// detects holds each seeded bug's detection times.
	detects    map[string][]time.Duration
	mismatches []string
}

// op records one finished operation: its latency and the expressions it
// completed. A failed operation counts against attempted but adds no
// latency sample, since it met no latency limit.
func (s *sampler) op(d time.Duration, items int64, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if failed {
		s.failed++
		return
	}
	s.lat = append(s.lat, d)
	s.items += items
}

// work adds the wall clock of a stretch of timed work, which
// exprs_per_s divides the expressions by.
func (s *sampler) work(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy += d
}

// detected records one detection of a seeded bug.
func (s *sampler) detected(bug string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.detects == nil {
		s.detects = make(map[string][]time.Duration)
	}
	s.detects[bug] = append(s.detects[bug], d)
}

// mismatch records a golden-check failure; the run then reports
// correct=false.
func (s *sampler) mismatch(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.mismatches) < 20 {
		s.mismatches = append(s.mismatches, fmt.Sprintf(format, args...))
	}
}
