package campaign

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dfcheck/internal/compare"
	"dfcheck/internal/rescache"
)

// TestFingerprintCoversResultKnobs is the checkpoint-safety contract:
// every knob that can change what the remaining batches compute must
// change the fingerprint, so -resume under a changed knob is rejected
// instead of silently continuing a different experiment. The documented
// exclusion, Workers, is asserted result-equivalent elsewhere
// (TestParallelRunMatchesSequential) and must NOT change it.
func TestFingerprintCoversResultKnobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	base := New(testConfig(11, 2), testComparator())
	if err := base.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	knobs := []struct {
		name   string
		mutate func(cfg *Config, c *compare.Comparator)
	}{
		{"seed", func(cfg *Config, c *compare.Comparator) { cfg.Seed++ }},
		{"batches", func(cfg *Config, c *compare.Comparator) { cfg.Batches++ }},
		{"num-exprs", func(cfg *Config, c *compare.Comparator) { cfg.NumExprs++ }},
		{"max-insts", func(cfg *Config, c *compare.Comparator) { cfg.MaxInsts++ }},
		{"widths", func(cfg *Config, c *compare.Comparator) { cfg.Widths[0].Weight++ }},
		{"max-cast-width", func(cfg *Config, c *compare.Comparator) { cfg.MaxCastWidth = 16 }},
		{"mutants", func(cfg *Config, c *compare.Comparator) { cfg.Mutants++ }},
		{"canaries", func(cfg *Config, c *compare.Comparator) { cfg.Canaries = !cfg.Canaries }},
		{"budget", func(cfg *Config, c *compare.Comparator) { c.Budget++ }},
		{"expr-timeout", func(cfg *Config, c *compare.Comparator) { c.ExprTimeout++ }},
		{"bug1", func(cfg *Config, c *compare.Comparator) { c.Analyzer.Bugs.NonZeroAdd = true }},
		{"bug2", func(cfg *Config, c *compare.Comparator) { c.Analyzer.Bugs.SRemSignBits = true }},
		{"bug3", func(cfg *Config, c *compare.Comparator) { c.Analyzer.Bugs.SRemKnownBits = false }},
		{"modern", func(cfg *Config, c *compare.Comparator) { c.Analyzer.Modern = true }},
		{"consistency", func(cfg *Config, c *compare.Comparator) { c.Consistency = true }},
		{"no-seed", func(cfg *Config, c *compare.Comparator) { c.NoSeed = true }},
		{"no-strash", func(cfg *Config, c *compare.Comparator) { c.NoStrash = true }},
		{"enum-cutoff", func(cfg *Config, c *compare.Comparator) { c.EnumCutoff = -1 }},
		{"nway", func(cfg *Config, c *compare.Comparator) { c.NWay = true }},
		{"reduce", func(cfg *Config, c *compare.Comparator) { c.Reduce = true }},
		// The serving knobs: external fact-service traffic warms the
		// cache nondeterministically between batches, so a checkpoint
		// written while serving must not resume unserved (and a changed
		// shard count records a changed serving setup).
		{"factsvc", func(cfg *Config, c *compare.Comparator) { cfg.FactSvc = true }},
		{"shards", func(cfg *Config, c *compare.Comparator) { c.Cache = rescache.NewSharded(8) }},
	}
	baseFP := base.Fingerprint()
	for _, k := range knobs {
		cfg := testConfig(11, 2)
		cmp := testComparator()
		k.mutate(&cfg, cmp)
		changed := New(cfg, cmp)
		if changed.Fingerprint() == baseFP {
			t.Errorf("%s: knob change did not change the fingerprint", k.name)
			continue
		}
		if err := changed.Resume(path); err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("%s: resume under changed knob not rejected: %v", k.name, err)
		}
	}

	// Documented exclusion: scheduling does not affect results, so
	// changing the worker count must keep checkpoints resumable.
	cmp := testComparator()
	cmp.Workers = 1
	same := New(testConfig(11, 2), cmp)
	if same.Fingerprint() != baseFP {
		t.Error("workers: result-equivalent knob changed the fingerprint")
	}
	if err := same.Resume(path); err != nil {
		t.Errorf("workers: resume under result-equivalent knob rejected: %v", err)
	}
}

// nwayComparator is the bug-3 test comparator with the n-way pre-filter
// and the reducer on: canary-bug3 yields a variant-contradiction finding
// with a reduced reproducer in every batch.
func nwayComparator() *compare.Comparator {
	c := testComparator()
	c.NWay = true
	c.Reduce = true
	return c
}

// TestCheckpointPreservesNWayState: variant findings, their reduced
// reproducers, and the cumulative pre-filter totals must survive a
// save/resume round-trip unreclassified.
func TestCheckpointPreservesNWayState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := New(testConfig(11, 1), nwayComparator())
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var planted *compare.Finding
	for i := range c.Totals.Findings {
		if c.Totals.Findings[i].Kind == compare.FindingVariant {
			planted = &c.Totals.Findings[i]
		}
	}
	if planted == nil {
		t.Fatal("n-way campaign produced no variant finding; canaries+bug3 broken")
	}
	if planted.Reduced == "" {
		t.Fatalf("variant finding not reduced: %+v", *planted)
	}
	if c.Totals.NWay == nil || c.Totals.NWay.Exprs == 0 {
		t.Fatalf("n-way totals not accumulated: %+v", c.Totals.NWay)
	}
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	r := New(testConfig(11, 1), nwayComparator())
	if err := r.Resume(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Totals.NWay, c.Totals.NWay) {
		t.Fatalf("n-way totals did not round-trip: %+v vs %+v", r.Totals.NWay, c.Totals.NWay)
	}
	var got *compare.Finding
	for i := range r.Totals.Findings {
		if r.Totals.Findings[i].Kind == compare.FindingVariant {
			got = &r.Totals.Findings[i]
		}
	}
	if got == nil {
		t.Fatalf("variant finding lost in round-trip: %+v", r.Totals.Findings)
	}
	if got.Result.Outcome != compare.VariantsContradict {
		t.Fatalf("variant finding reclassified on resume: %+v", *got)
	}
	if got.Reduced != planted.Reduced || got.ReduceSteps != planted.ReduceSteps {
		t.Fatalf("reduced reproducer lost on resume:\nsaved:   %q (%d steps)\nresumed: %q (%d steps)",
			planted.Reduced, planted.ReduceSteps, got.Reduced, got.ReduceSteps)
	}

	// Resuming an n-way checkpoint without -nway changes what the
	// remaining batches test and must be rejected.
	plain := New(testConfig(11, 1), testComparator())
	if err := plain.Resume(path); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("resume without -nway not rejected: %v", err)
	}
}
