package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// testConfig is a small, fast campaign: narrow widths keep solver
// queries trivial, and bug3+canaries guarantee at least one finding per
// batch so the findings path is exercised.
func testConfig(seed int64, batches int) Config {
	return Config{
		Seed:     seed,
		Batches:  batches,
		NumExprs: 4,
		MaxInsts: 3,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 2}, {Width: 8, Weight: 1}},
		Mutants:  1,
		Canaries: true,
	}
}

func testComparator() *compare.Comparator {
	return &compare.Comparator{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemKnownBits: true}},
		// A small conflict budget keeps hard queries cheap while staying
		// deterministic (unlike a wall-clock timeout): exhaustion counts
		// must agree between the runs the tests compare.
		Budget:  500,
		Workers: 4,
	}
}

// comparableTotals strips the rows' CPU times and the findings' oracle
// times — the only non-deterministic parts of the tallies — so
// interrupted-and-resumed totals can be compared to uninterrupted ones
// with reflect.DeepEqual. Every other total stays, the consistency checks
// and n-way totals included.
func comparableTotals(t Totals) Totals {
	out := t
	out.Rows = make(map[harvest.Analysis]*compare.Row, len(t.Rows))
	for a, row := range t.Rows {
		cp := *row
		cp.CPUTime = 0
		out.Rows[a] = &cp
	}
	out.Findings = make([]compare.Finding, len(t.Findings))
	for i, f := range t.Findings {
		f.Elapsed = 0
		out.Findings[i] = f
	}
	return out
}

func TestCorpusDeterministic(t *testing.T) {
	a := New(testConfig(7, 3), testComparator())
	b := New(testConfig(7, 3), testComparator())
	for batch := 0; batch < 3; batch++ {
		ca, cb := a.Corpus(batch), b.Corpus(batch)
		if len(ca) != len(cb) {
			t.Fatalf("batch %d: corpus sizes %d vs %d", batch, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i].Name != cb[i].Name || ca[i].F.String() != cb[i].F.String() {
				t.Fatalf("batch %d entry %d differs:\n%s\nvs\n%s", batch, i, ca[i].F, cb[i].F)
			}
		}
	}
	if got := a.Corpus(0)[0].F.String(); got == b.Corpus(1)[0].F.String() {
		t.Fatal("different batches generated identical corpora; batch seed not applied")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := New(testConfig(11, 2), testComparator())
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(c.Totals.Findings) == 0 {
		t.Fatal("test campaign produced no findings; canaries+bug3 broken")
	}
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	r := New(testConfig(11, 2), testComparator())
	if err := r.Resume(path); err != nil {
		t.Fatal(err)
	}
	if r.NextBatch != c.NextBatch {
		t.Fatalf("NextBatch = %d, want %d", r.NextBatch, c.NextBatch)
	}
	if !reflect.DeepEqual(comparableTotals(r.Totals), comparableTotals(c.Totals)) {
		t.Fatalf("totals did not round-trip:\nsaved:   %+v\nresumed: %+v", c.Totals, r.Totals)
	}
	// CPU time is preserved byte-for-byte through the checkpoint too.
	for a, row := range c.Totals.Rows {
		if r.Totals.Rows[a].CPUTime != row.CPUTime {
			t.Fatalf("row %s CPU time %v != %v", a, r.Totals.Rows[a].CPUTime, row.CPUTime)
		}
	}
}

func TestResumeRejectsConfigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := New(testConfig(11, 2), testComparator())
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	other := New(testConfig(12, 2), testComparator()) // different seed
	err := other.Resume(path)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}

	sameCfg := New(testConfig(11, 2), &compare.Comparator{
		Analyzer: &llvmport.Analyzer{}, // bug flag dropped
	})
	err = sameCfg.Resume(path)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("bug-flag mismatch not rejected: %v", err)
	}
}

// TestResumeRefusesOldFingerprint resumes a checkpoint written before
// the clone-racing SAT knobs left the fingerprint
// (testdata/old-fingerprint-checkpoint.json, one batch of this test
// campaign). Its fingerprint differs from today's only by those two
// knobs, and the resume must still be refused with a mismatch error
// rather than continue: old checkpoints need a fresh start.
func TestResumeRefusesOldFingerprint(t *testing.T) {
	const path = "testdata/old-fingerprint-checkpoint.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Config string `json:"config"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	c := New(testConfig(11, 1), testComparator())
	fields := func(fp string) map[string]bool {
		m := map[string]bool{}
		for _, f := range strings.Split(fp, ";") {
			m[f] = true
		}
		return m
	}
	oldF, newF := fields(old.Config), fields(c.Fingerprint())
	var dropped []string
	for f := range oldF {
		if !newF[f] {
			dropped = append(dropped, f)
		}
	}
	for f := range newF {
		if !oldF[f] {
			t.Fatalf("fixture predates knob %q; it no longer isolates the dropped knobs", f)
		}
	}
	if len(dropped) != 2 {
		t.Fatalf("fixture fingerprint differs by %v, want exactly the two dropped knobs", dropped)
	}

	err = c.Resume(path)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("old-fingerprint checkpoint not refused: %v", err)
	}
	if c.NextBatch != 0 || c.Totals.Batches != 0 {
		t.Fatalf("refused resume modified campaign: next=%d totals=%+v", c.NextBatch, c.Totals)
	}
}

// TestResumeRefusesOldModernCheckpoint resumes a -modern checkpoint
// written before the Modern analyzer gained the rotate and funnel-shift
// amount rule (testdata/old-modern-checkpoint.json, one batch of this
// test campaign). That rule changes the Modern demanded-bits facts, so
// the resume must be refused. The fingerprint may differ only in the
// modern field, and a non-modern campaign's fingerprint must read as the
// fixture's did with modern=false: non-modern checkpoints keep resuming.
func TestResumeRefusesOldModernCheckpoint(t *testing.T) {
	const path = "testdata/old-modern-checkpoint.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Config string `json:"config"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	modern := testComparator()
	modern.Analyzer.Modern = true
	c := New(testConfig(11, 1), modern)
	oldF, newF := strings.Split(old.Config, ";"), strings.Split(c.Fingerprint(), ";")
	if len(oldF) != len(newF) {
		t.Fatalf("fixture has %d fingerprint fields, today %d:\n%s\n%s", len(oldF), len(newF), old.Config, c.Fingerprint())
	}
	for i := range oldF {
		if oldF[i] != newF[i] && !strings.HasPrefix(oldF[i], "modern=") {
			t.Fatalf("fixture fingerprint differs in %q (today %q); it no longer isolates the modern field", oldF[i], newF[i])
		}
	}
	plain := New(testConfig(11, 1), testComparator())
	if want := strings.Replace(old.Config, ";modern=true;", ";modern=false;", 1); plain.Fingerprint() != want {
		t.Errorf("non-modern fingerprint changed:\n  got  %s\n  want %s", plain.Fingerprint(), want)
	}

	err = c.Resume(path)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("pre-rule -modern checkpoint not refused: %v", err)
	}
	if c.NextBatch != 0 || c.Totals.Batches != 0 {
		t.Fatalf("refused resume modified campaign: next=%d totals=%+v", c.NextBatch, c.Totals)
	}
}

func TestResumeRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	c := New(testConfig(11, 1), testComparator())

	if err := c.Resume(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file not rejected")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `{"version":1,"tool":"dfcheck-campaign","config":`); err != nil {
		t.Fatal(err)
	}
	if err := c.Resume(bad); err == nil {
		t.Fatal("truncated JSON not rejected")
	}
	wrongTool := filepath.Join(dir, "tool.json")
	if err := writeFile(wrongTool, `{"version":1,"tool":"other"}`); err != nil {
		t.Fatal(err)
	}
	if err := c.Resume(wrongTool); err == nil || !strings.Contains(err.Error(), "tool") {
		t.Fatalf("wrong tool not rejected: %v", err)
	}
	// A failed Resume leaves the campaign untouched.
	if c.NextBatch != 0 || c.Totals.Batches != 0 {
		t.Fatalf("failed resume modified campaign: next=%d totals=%+v", c.NextBatch, c.Totals)
	}
}

// checkInterruptResume is the acceptance check for checkpoint/resume: a
// campaign of mk's comparator killed after batch stop and resumed from
// its checkpoint produces the identical final report — tallies and
// findings — to one that was never interrupted. It returns the
// uninterrupted campaign.
func checkInterruptResume(t *testing.T, seed int64, batches, stop int, mk func() *compare.Comparator) *Campaign {
	t.Helper()
	// Reference: uninterrupted run.
	ref := New(testConfig(seed, batches), mk())
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ref.Totals.Batches != batches || len(ref.Totals.Findings) == 0 {
		t.Fatalf("reference run: %d batches, %d findings", ref.Totals.Batches, len(ref.Totals.Findings))
	}

	// Interrupted run: cancel after batch stop completes, so batch
	// stop+1 is dispatched under a cancelled context and discarded whole.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(seed, batches)
	cfg.CheckpointPath = path
	cfg.AfterBatch = func(b int) {
		if b == stop {
			cancel()
		}
	}
	interrupted := New(cfg, mk())
	if err := interrupted.Run(ctx); err != context.Canceled {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if got := interrupted.Totals.Batches; got != stop+1 {
		t.Fatalf("interrupted run folded %d batches, want %d", got, stop+1)
	}
	if got := len(interrupted.Totals.Findings); got == 0 {
		t.Fatal("interrupted run carried no findings into the checkpoint")
	}

	// Resumed run: a fresh campaign restores the checkpoint and runs
	// the remaining batches.
	rcfg := testConfig(seed, batches)
	rcfg.CheckpointPath = path
	resumed := New(rcfg, mk())
	if err := resumed.Resume(path); err != nil {
		t.Fatal(err)
	}
	if resumed.NextBatch != stop+1 {
		t.Fatalf("resumed at batch %d, want %d", resumed.NextBatch, stop+1)
	}
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(comparableTotals(resumed.Totals), comparableTotals(ref.Totals)) {
		t.Fatalf("resumed final report differs from uninterrupted run:\nresumed:      %+v\nuninterrupted: %+v",
			comparableTotals(resumed.Totals), comparableTotals(ref.Totals))
	}
	// And the rendered reports agree too (modulo CPU-time columns, so
	// compare the findings sections, which are timing-free).
	refRep, resRep := ref.Report(), resumed.Report()
	if len(refRep.Findings) != len(resRep.Findings) {
		t.Fatalf("findings: %d vs %d", len(refRep.Findings), len(resRep.Findings))
	}
	for i := range refRep.Findings {
		if refRep.Findings[i].String() != resRep.Findings[i].String() {
			t.Fatalf("finding %d differs:\n%s\nvs\n%s", i, refRep.Findings[i], resRep.Findings[i])
		}
	}
	return ref
}

// TestInterruptResumeEquivalence checks resume equivalence for the plain
// comparator and for the benchmark campaign's mode, where the n-way
// pre-filter and the consistency lint add totals of their own.
func TestInterruptResumeEquivalence(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		checkInterruptResume(t, 20260806, 3, 1, testComparator)
	})
	t.Run("nway-consistency", func(t *testing.T) {
		ref := checkInterruptResume(t, 20260806, 3, 1, lintNWayComparator)
		if ref.Totals.NWay == nil || ref.Totals.NWay.Exprs == 0 || ref.Totals.ConsistencyChecks == 0 {
			t.Fatalf("n-way or lint totals not accumulated: nway %+v, %d consistency checks",
				ref.Totals.NWay, ref.Totals.ConsistencyChecks)
		}
	})
}

// TestInterruptResumeEquivalenceCached runs the same equivalence check
// with the oracle cache on, where the never-memoize-cancelled guard is
// what keeps the resumed run honest.
func TestInterruptResumeEquivalenceCached(t *testing.T) {
	checkInterruptResume(t, 31337, 3, 0, func() *compare.Comparator {
		c := testComparator()
		c.Cache = rescache.New()
		return c
	})
}

// TestRunEmitsEvents checks the JSONL stream: one batch record per
// batch, one self-contained finding record per finding.
func TestRunEmitsEvents(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig(5, 2)
	cfg.Events = metrics.NewEventLog(&sb)
	cmp := testComparator()
	cmp.Metrics = metrics.NewRegistry()
	c := New(cfg, cmp)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var batchEvents, findingEvents int
	for _, line := range lines {
		switch {
		case strings.Contains(line, `"event":"batch"`):
			batchEvents++
		case strings.Contains(line, `"event":"finding"`):
			findingEvents++
			// Self-contained: seed and source present.
			if !strings.Contains(line, `"seed"`) || !strings.Contains(line, `"source"`) {
				t.Fatalf("finding record not self-contained: %s", line)
			}
		}
	}
	if batchEvents != 2 {
		t.Fatalf("%d batch events, want 2", batchEvents)
	}
	if findingEvents != len(c.Totals.Findings) {
		t.Fatalf("%d finding events, want %d", findingEvents, len(c.Totals.Findings))
	}
	if got := cmp.Metrics.Counter("batches").Value(); got != 2 {
		t.Fatalf("batches counter = %d, want 2", got)
	}
}

// slowWriter delays every write by d.
type slowWriter struct{ d time.Duration }

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.d)
	return len(p), nil
}

// TestResumedRatesCountThisRun resumes a checkpoint whose totals carry
// 2^40 expressions over 1000 batches, runs one batch, and checks that the
// rate and ETA gauges count only that batch. The batch's event record is
// written slowly, so at least 20 ms pass between Run's start and the
// gauges.
func TestResumedRatesCountThisRun(t *testing.T) {
	const done, left, slow = 1000, 100000, 20 * time.Millisecond
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cfg := testConfig(11, done+left)
	c := New(cfg, testComparator())
	c.Totals.Batches, c.Totals.Exprs, c.NextBatch = done, 1<<40, done
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Events = metrics.NewEventLog(slowWriter{slow})
	cfg.AfterBatch = func(int) { cancel() }
	cmp := testComparator()
	cmp.Metrics = metrics.NewRegistry()
	r := New(cfg, cmp)
	if err := r.Resume(path); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if r.Totals.Batches != done+1 {
		t.Fatalf("%d batches done, want %d", r.Totals.Batches, done+1)
	}
	exprs := int64(len(r.Corpus(done)))
	rate := cmp.Metrics.Gauge("campaign_exprs_per_sec_milli").Value()
	if most := exprs * 1000 * int64(time.Second/slow); rate <= 0 || rate > most {
		t.Errorf("campaign_exprs_per_sec_milli = %d, want (0, %d]: the one batch's %d expressions in at least %v",
			rate, most, exprs, slow)
	}
	if eta, least := cmp.Metrics.Gauge("campaign_eta_seconds").Value(), int64((left-1)*slow/time.Second); eta < least {
		t.Errorf("campaign_eta_seconds = %d, want at least %d: %d batches left at %v or more each", eta, least, left-1, slow)
	}
}

func TestCheckpointSaveErrorIsWarning(t *testing.T) {
	var out strings.Builder
	cfg := testConfig(5, 1)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "no-such-dir", "ckpt.json")
	cfg.Progress = &out
	c := New(cfg, testComparator())
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("checkpoint failure aborted campaign: %v", err)
	}
	if !strings.Contains(out.String(), "warning: checkpoint not saved") {
		t.Fatalf("checkpoint failure not surfaced:\n%s", out.String())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// consistencyComparator is a comparator with the cross-domain lint on
// and a bug the lint can catch without oracle help (bug 1 proves values
// non-zero that other domains prove zero).
func consistencyComparator() *compare.Comparator {
	return &compare.Comparator{
		Analyzer:    &llvmport.Analyzer{Bugs: llvmport.BugConfig{NonZeroAdd: true}},
		Consistency: true,
		Budget:      500,
		Workers:     4,
	}
}

// TestCheckpointPreservesInconsistentFindings: a checkpoint must carry
// the finding kind and the consistency-check tally, so a resumed
// campaign reports inconsistent findings as such rather than silently
// reclassifying them as soundness findings.
func TestCheckpointPreservesInconsistentFindings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := New(testConfig(13, 1), consistencyComparator())
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The generated corpus need not hit the lint's trigger shape, so
	// plant one inconsistent finding deterministically before saving.
	c.Totals.Findings = append(c.Totals.Findings, compare.Finding{
		ExprName: "planted",
		Source:   "%0:i8 = add 0:i8, 0:i8\ninfer %0",
		Kind:     compare.FindingInconsistent,
		Result: compare.Result{
			Analysis: compare.ConsistencyAnalysis,
			Outcome:  compare.Inconsistent,
			Var:      "add:i8",
			LLVMFact: "non-zero proved but known bits 00000000 and range [0,1) admit only zero",
		},
	})
	c.Totals.ConsistencyChecks += 9
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	r := New(testConfig(13, 1), consistencyComparator())
	if err := r.Resume(path); err != nil {
		t.Fatal(err)
	}
	if r.Totals.ConsistencyChecks != c.Totals.ConsistencyChecks {
		t.Fatalf("consistency checks = %d, want %d", r.Totals.ConsistencyChecks, c.Totals.ConsistencyChecks)
	}
	var got *compare.Finding
	for i := range r.Totals.Findings {
		if r.Totals.Findings[i].Kind == compare.FindingInconsistent {
			got = &r.Totals.Findings[i]
		}
	}
	if got == nil {
		t.Fatalf("inconsistent finding lost in round-trip: %+v", r.Totals.Findings)
	}
	if got.Result.Outcome != compare.Inconsistent || got.Result.Analysis != compare.ConsistencyAnalysis {
		t.Fatalf("finding reclassified on resume: %+v", *got)
	}
	if got.Result.Var != "add:i8" || got.Result.LLVMFact == "" {
		t.Fatalf("finding detail lost on resume: %+v", *got)
	}

	// The lint flag is part of the fingerprint: resuming without it must
	// be rejected, like any other configuration change.
	plain := New(testConfig(13, 1), testComparator())
	if err := plain.Resume(path); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("resume under different consistency setting not rejected: %v", err)
	}
}

// TestCheckpointTransferDomainFindings: n-way contradictions in the
// transfer domains are labeled "tnum"/"stride" — names outside Table 1 —
// and a checkpoint carrying one must resume cleanly. The extended-lint
// domain list is part of the fingerprint, so dropping it invalidates the
// checkpoint like any other configuration change.
func TestCheckpointTransferDomainFindings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	mk := func(doms []absint.Domain) *Campaign {
		return New(testConfig(17, 1), &compare.Comparator{
			Analyzer:    &llvmport.Analyzer{},
			Consistency: true,
			Domains:     doms,
			Budget:      500,
			Workers:     4,
		})
	}
	c := mk(absint.AllInputDomains())
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A clean analyzer contradicts nothing, so plant the finding shape
	// the n-way cross-check emits for a broken tnum multiply.
	c.Totals.Findings = append(c.Totals.Findings, compare.Finding{
		ExprName: "planted",
		Source:   "%x:i1 = var\n%0:i1 = mul %x, 1:i1\ninfer %0",
		Kind:     compare.FindingVariant,
		Result: compare.Result{
			Analysis:   harvest.Tnum,
			Outcome:    compare.VariantsContradict,
			Var:        "exact vs domain-interp",
			OracleFact: "{value 0 mask 1}",
			LLVMFact:   "{value 0 mask 0}",
		},
	})
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	r := mk(absint.AllInputDomains())
	if err := r.Resume(path); err != nil {
		t.Fatalf("resume rejected tnum-labeled finding: %v", err)
	}
	var got *compare.Finding
	for i := range r.Totals.Findings {
		if r.Totals.Findings[i].Result.Analysis == harvest.Tnum {
			got = &r.Totals.Findings[i]
		}
	}
	if got == nil || got.Kind != compare.FindingVariant || got.Result.Outcome != compare.VariantsContradict {
		t.Fatalf("tnum finding lost or reclassified: %+v", r.Totals.Findings)
	}

	plain := mk(nil)
	if err := plain.Resume(path); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("resume under different domain list not rejected: %v", err)
	}
}
