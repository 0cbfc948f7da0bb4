package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
)

// benchConfig is the benchmark's campaign (bench/campaign.go: dfcheck-fuzz
// -nway -seed 11 at its defaults) over the given number of batches, with
// the §4.7 canaries added so the findings path is compared too.
func benchConfig(batches int) Config {
	return Config{
		Seed:     11,
		Batches:  batches,
		NumExprs: 50,
		MaxInsts: 6,
		Widths: []harvest.WidthWeight{
			{Width: 4, Weight: 1}, {Width: 8, Weight: 3}, {Width: 13, Weight: 1}, {Width: 16, Weight: 2},
		},
		MaxCastWidth: 16,
		Mutants:      1,
		Canaries:     true,
	}
}

// benchComparator is the benchmark's comparator (n-way pre-filter and
// consistency lint) with bug 3 injected, which the canaries report.
// Without the benchmark's wall-clock cap every result is a pure function
// of the expression.
func benchComparator(workers int) *compare.Comparator {
	return &compare.Comparator{
		Analyzer:    &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemKnownBits: true}},
		Workers:     workers,
		Metrics:     metrics.NewRegistry(),
		Consistency: true,
		NWay:        true,
	}
}

var (
	eventTime = regexp.MustCompile(`"(elapsed_ms|time)":("[^"]*"|[0-9]+),?`)
	cpuTime   = regexp.MustCompile(`"cpu_time_ns": [0-9]+`)
)

// TestWorkersDoNotChangeResults runs the benchmark's campaign for 12
// batches at 1, 2 and 8 workers: the totals, the event records (time
// fields aside) and the checkpoint (CPU times aside) must be the same.
// The number of workers is left out of the checkpoint fingerprint on the
// strength of this test.
func TestWorkersDoNotChangeResults(t *testing.T) {
	type outcome struct {
		totals Totals
		events string
		ckpt   string
	}
	run := func(workers int) outcome {
		var ev strings.Builder
		cfg := benchConfig(12)
		cfg.Events = metrics.NewEventLog(&ev)
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
		cmp := benchComparator(workers)
		c := New(cfg, cmp)
		if err := c.Run(context.Background()); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if busy := cmp.Metrics.Gauge("workers_busy").Value(); busy != 0 {
			t.Errorf("workers %d: workers_busy = %d after Run", workers, busy)
		}
		raw, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			totals: comparableTotals(c.Totals),
			events: eventTime.ReplaceAllString(ev.String(), ""),
			ckpt:   cpuTime.ReplaceAllString(string(raw), ""),
		}
	}
	ref := run(1)
	if ref.totals.Batches != 12 || len(ref.totals.Findings) == 0 || ref.totals.NWay.Escalated == 0 {
		t.Fatalf("reference campaign: %d batches, %d findings, n-way %+v", ref.totals.Batches, len(ref.totals.Findings), ref.totals.NWay)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.totals, ref.totals) {
			t.Errorf("workers %d: totals differ from one worker's:\n%+v\nvs\n%+v", workers, got.totals, ref.totals)
		}
		if got.events != ref.events {
			t.Errorf("workers %d: event records differ from one worker's:\n%s\nvs\n%s", workers, got.events, ref.events)
		}
		if got.ckpt != ref.ckpt {
			t.Errorf("workers %d: checkpoint differs from one worker's:\n%s\nvs\n%s", workers, got.ckpt, ref.ckpt)
		}
	}
}

// exprCounters are the comparator's per-expression counters, which a
// kept batch records and a discarded one must not.
var exprCounters = []string{
	"exprs_compared", "solver_queries", "solver_conflicts", "solver_propagations",
	"solver_decisions", "solver_exhausted", "solver_pruned_queries", "solver_enum_queries",
	"solver_gates_built", "nway_exprs", "nway_comparisons", "nway_escalations",
	"nway_agreed", "consistency_checks",
}

func counterValues(m *metrics.Registry) map[string]int64 {
	v := make(map[string]int64, len(exprCounters))
	for _, name := range exprCounters {
		v[name] = m.Counter(name).Value()
	}
	return v
}

// TestCancelAfterEveryBatch cancels the campaign from AfterBatch(b) for
// every batch b. The batch already started behind b is discarded, so
// the totals hold exactly b+1 batches and the campaign resumes at b+1,
// and the comparator's metrics record no skipped expression, only the
// folded findings, and per-expression counters equal to the
// uninterrupted run's after batch b; Run reports the cancel unless b was
// the last batch; and every goroutine Run started has exited when it
// returns.
func TestCancelAfterEveryBatch(t *testing.T) {
	const batches = 12
	ref := New(benchConfig(batches), benchComparator(4))
	var want []Totals
	// counters[b] holds the reference run's counters after batches
	// 0..b-1: a batch is recorded after its Done, which runs AfterBatch.
	var counters []map[string]int64
	ref.AfterBatch = func(int) {
		snap := comparableTotals(ref.Totals)
		nw := *snap.NWay // the run goes on adding to its own
		snap.NWay = &nw
		want = append(want, snap)
		counters = append(counters, counterValues(ref.Comparator.Metrics))
	}
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	counters = append(counters, counterValues(ref.Comparator.Metrics))
	if counters[batches]["exprs_compared"] == 0 || counters[batches]["nway_exprs"] == 0 {
		t.Fatalf("the reference run recorded no compared expression: %v", counters[batches])
	}
	for stop := 0; stop < batches; stop++ {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := benchConfig(batches)
		cfg.AfterBatch = func(b int) {
			if b == stop {
				cancel()
			}
		}
		c := New(cfg, benchComparator(4))
		err := c.Run(ctx)
		cancel()
		if stop < batches-1 && err != context.Canceled {
			t.Errorf("stop %d: Run = %v, want context.Canceled", stop, err)
		}
		if stop == batches-1 && err != nil {
			t.Errorf("stop %d (the last batch): Run = %v, want nil", stop, err)
		}
		if c.Totals.Batches != stop+1 || c.NextBatch != stop+1 {
			t.Errorf("stop %d: %d batches folded, next batch %d; want %d and %d", stop, c.Totals.Batches, c.NextBatch, stop+1, stop+1)
		}
		if got := comparableTotals(c.Totals); !reflect.DeepEqual(got, want[stop]) {
			t.Errorf("stop %d: totals differ from the uninterrupted run's after that batch:\n%+v\nvs\n%+v", stop, got, want[stop])
		}
		m := c.Comparator.Metrics
		if skipped := m.Counter("exprs_skipped").Value(); skipped != 0 {
			t.Errorf("stop %d: exprs_skipped = %d, want 0: the discarded batch must not be recorded", stop, skipped)
		}
		sound := 0
		for _, f := range c.Totals.Findings {
			if f.Kind == compare.FindingSoundness {
				sound++
			}
		}
		if got := m.Counter("findings").Value(); got != int64(sound) {
			t.Errorf("stop %d: findings = %d, want the %d folded soundness findings", stop, got, sound)
		}
		if got := counterValues(m); !reflect.DeepEqual(got, counters[stop+1]) {
			t.Errorf("stop %d: per-expression counters %v, want the uninterrupted run's after that batch %v", stop, got, counters[stop+1])
		}
		// A goroutine that has signalled its WaitGroup may take a moment
		// to be gone.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("stop %d: %d goroutines after Run, %d before:\n%s", stop, n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}
