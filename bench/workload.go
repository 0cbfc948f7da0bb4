package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dfcheck/internal/llvmport"
	"dfcheck/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the reason the workload exists, as BENCHMARK.json states it.
	why string
	// refSeed is the seed -seed 0 selects: the one the golden files and
	// the published numbers were taken at.
	refSeed int64
	setup   func(seed int64, s *sampler) (instance, error)
}

// instance is one set-up copy of a workload.
type instance interface {
	// parts is the number of parts one round of the timed loop has, and
	// part runs part i of round r of it, recording its operations and
	// work time in s. A round is the same work every time; measure
	// detects the seeded bugs after each part.
	parts() int
	part(ctx context.Context, r, i int, s *sampler) error
	// detect runs one detection of each seeded bug and records each time
	// in s. A non-nil replay receives one span per detection and the
	// bug's other detect.* metrics.
	detect(ctx context.Context, r *replay, s *sampler) error
	// replay runs the traced layer-by-layer replay of the workload's
	// inputs. It returns the untraced pipeline's time for the replayed
	// work and the replay's own time for it (trace.replay_vs_report).
	replay(ctx context.Context, r *replay, s *sampler) (report, replayed time.Duration, err error)
	close()
}

// workloads is the benchmark, in the order -workload all runs it. They
// are the paper's two experiments: the Table 1 comparison, which the
// oracle and its SAT tail carry, and the §4.7 testing loop, which
// generation, the analyzers and the n-way filter carry. The solver-free
// domain sweep and the fact service have no workload: on a shared 2-CPU
// host the host's speed drifts by tens of percent over minutes, so a
// set of runs must be short to be steady, and two workloads keep it so.
var workloads = []*workload{
	{
		name:    "table1",
		why:     "Table 1 oracle comparison of the seed-2020 corpus but its 22 s gen-000114, on 2 workers: oracle-bound, integer range and demanded bits dominate, SAT tail",
		refSeed: 2020, setup: setupTable1,
	},
	{
		name:    "campaign",
		why:     "n-way testing loop of dfcheck-fuzz at seed 11: generation, analyzers, n-way filter and lint; the oracle sees only escalations",
		refSeed: 11, setup: setupCampaign,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// exprTimeout is the per-expression oracle cap precision-table and
// dfcheck-fuzz default to (the paper's five minutes).
const exprTimeout = 5 * time.Minute

// bugNames label the seeded bugs in metrics and golden files.
var bugNames = [...]string{"bug1", "bug2", "bug3"}

// bugConfig injects seeded bug 1, 2 or 3 of §4.7.
func bugConfig(bug int) llvmport.BugConfig {
	return llvmport.BugConfig{NonZeroAdd: bug == 1, SRemSignBits: bug == 2, SRemKnownBits: bug == 3}
}

//go:embed testdata/*.json
var goldenFS embed.FS

// loadGolden decodes testdata/<name>.json into v.
func loadGolden(name string, v any) error {
	data, err := goldenFS.ReadFile("testdata/" + name + ".json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	return nil
}

// goldenDir finds testdata/ in the source tree, for -regen-golden run from
// the repository root or from bench/.
func goldenDir() (string, error) {
	for _, dir := range []string{filepath.Join("bench", "testdata"), "testdata"} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("testdata/ not found: run -regen-golden from the repository root")
}

func saveGolden(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// regenGolden recomputes every golden file from the current code. It is
// for a change that alters results on purpose; such a change says so.
func regenGolden(log io.Writer) error {
	dir, err := goldenDir()
	if err != nil {
		return err
	}
	for _, g := range []struct {
		name string
		fn   func(io.Writer) (any, error)
	}{
		{"table1", regenTable1},
		{"campaign", regenCampaign},
	} {
		start := time.Now()
		v, err := g.fn(log)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		if err := saveGolden(dir, g.name, v); err != nil {
			return err
		}
		fmt.Fprintf(log, "%s: golden written in %s\n", g.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// timed runs fn, as a replayed unit of r when r is non-nil, and returns
// its time.
func timed(r *replay, name string, fn func()) time.Duration {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	var d time.Duration
	r.unit(name, func(root *trace.Span) { d = r.layer(root, name, fn) })
	return d
}

// timedSetup sets the workload up on a freshly collected heap and
// records the time that took.
func timedSetup(w *workload, seed int64, s *sampler) (instance, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(seed, s)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	s.setups = append(s.setups, time.Since(t0))
	return inst, nil
}

// setupsPerPart is the number of extra set-ups timed after each part of
// the timed loop. A set-up is short (campaign's is one 40 ms batch) and
// its samples within one run spread twofold, so setup_s takes the median
// of many.
const setupsPerPart = 3

// measure runs the timed loop: round 0, round 1, ... while the next
// round, if it takes as long as the last one did, still ends within the
// window. The first round always runs. Every round of a workload does the
// same work, so a run measures whole rounds and never a partial one whose
// mix depends on where the window ended. Each round starts on a freshly
// collected heap, as a Go benchmark does. After each part of a round come
// a detection of every seeded bug and more timed set-ups, so that every
// metric samples the whole window: the host's speed drifts within a run,
// and a phase timed only at its start would see only the start.
func measure(ctx context.Context, w *workload, inst instance, seed int64, window time.Duration, s *sampler) error {
	deadline := time.Now().Add(window)
	var last time.Duration
	for r := 0; r == 0 || time.Now().Add(last).Before(deadline); r++ {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < inst.parts(); i++ {
			if err := inst.part(ctx, r, i, s); err != nil {
				return err
			}
			if err := inst.detect(ctx, nil, s); err != nil {
				return err
			}
			for k := 0; k < setupsPerPart; k++ {
				extra, err := timedSetup(w, seed, s)
				if err != nil {
					return err
				}
				extra.close()
			}
		}
		last = time.Since(t0)
		s.rounds++
	}
	return nil
}
