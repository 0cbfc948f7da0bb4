package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
)

// formatCheckpoint is a checkpoint of fixtureCampaign holding
// fixtureTotals. It was written by SaveCheckpoint before findings, rows
// and n-way totals took compare's JSON encoding, and pins that the file
// format did not change with it.
const formatCheckpoint = "testdata/format-checkpoint.json"

// lintNWayComparator runs in the benchmark campaign's mode: n-way
// pre-filter and consistency lint on, here with the reducer and bug 3.
func lintNWayComparator() *compare.Comparator {
	c := nwayComparator()
	c.Consistency = true
	return c
}

func fixtureCampaign() *Campaign { return New(testConfig(11, 4), lintNWayComparator()) }

// fixtureTotals holds every part of a checkpoint: rows with CPU times,
// one finding of each kind (the n-way one reduced), consistency checks
// and n-way totals. Outcomes are the ones Resume restores from the kind.
func fixtureTotals() Totals {
	t := newTotals()
	t.Batches, t.Exprs = 2, 40
	for _, row := range []compare.Row{
		{Analysis: harvest.KnownBits, Same: 10, OracleMP: 3, LLVMMP: 1, Exhausted: 1, CPUTime: 45 * time.Millisecond, Exprs: 15},
		{Analysis: harvest.SignBits, Same: 14, LLVMMP: 1, CPUTime: 7500 * time.Microsecond, Exprs: 15},
		{Analysis: harvest.DemandedBits, Same: 20, OracleMP: 4, Exhausted: 2, CPUTime: 130 * time.Millisecond, Exprs: 13},
	} {
		t.Rows[row.Analysis] = &row
	}
	t.Findings = []compare.Finding{
		{
			ExprName: "canary-srem-sign-bits",
			Source:   "%x:i8 = var\n%0:i8 = srem %x, 3:i8\ninfer %0",
			Kind:     compare.FindingSoundness,
			Result: compare.Result{Analysis: harvest.SignBits, Outcome: compare.LLVMMorePrecise,
				OracleFact: "6", LLVMFact: "7"},
		},
		{
			ExprName: "gen-000003",
			Source:   "%0:i8 = add 0:i8, 0:i8\ninfer %0",
			Kind:     compare.FindingInconsistent,
			Result: compare.Result{Analysis: compare.ConsistencyAnalysis, Outcome: compare.Inconsistent, Var: "add:i8",
				LLVMFact: "non-zero proved but known bits 00000000 and range [0,1) admit only zero"},
		},
		{
			ExprName: "gen-000007-mut0",
			Source:   "%x:i8 = var\n%y:i8 = var\n%0:i8 = srem %x, %y\n%1:i8 = and %0, 3:i8\ninfer %1",
			Kind:     compare.FindingVariant,
			Result: compare.Result{Analysis: harvest.KnownBits, Outcome: compare.VariantsContradict, Var: "exact vs llvm8",
				OracleFact: "000000xx", LLVMFact: "00000x00"},
			Reduced:     "%x:i8 = var\n%0:i8 = srem %x, 3:i8\ninfer %0",
			ReduceSteps: 3,
		},
		{
			ExprName: "gen-000011",
			Source:   "%x:i4 = var\n%0:i4 = lshr %x, 2:i4\ninfer %0",
			Kind:     compare.FindingSoundness,
			Result: compare.Result{Analysis: harvest.DemandedBits, Outcome: compare.LLVMMorePrecise, Var: "%x",
				OracleFact: "1100", LLVMFact: "0100"},
		},
	}
	t.ConsistencyChecks = 9
	t.NWay = &compare.NWayStats{Exprs: 40, Agreed: 33, Escalated: 6, Dead: 1,
		Comparisons: 320, Disagreements: 11, Contradictions: 1}
	return t
}

// readJSON decodes a JSON file into generic values, so two files can be
// compared regardless of key order and indentation.
func readJSON(t *testing.T, path string) any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return v
}

// TestResumeCheckpointFixture resumes the committed format checkpoint
// into exactly fixtureTotals, and saves it back JSON-equal to the file:
// checkpoints written before and after the shared encoding resume in
// either version.
func TestResumeCheckpointFixture(t *testing.T) {
	c := fixtureCampaign()
	if err := c.Resume(formatCheckpoint); err != nil {
		t.Fatal(err)
	}
	if c.NextBatch != 2 {
		t.Fatalf("NextBatch = %d, want 2", c.NextBatch)
	}
	if want := fixtureTotals(); !reflect.DeepEqual(c.Totals, want) {
		t.Fatalf("resumed totals differ from the fixture's:\ngot:  %+v\nwant: %+v", c.Totals, want)
	}
	path := t.TempDir() + "/ckpt.json"
	if err := c.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got, want := readJSON(t, path), readJSON(t, formatCheckpoint); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-saved checkpoint differs from %s:\ngot:  %v\nwant: %v", formatCheckpoint, got, want)
	}
}

// TestResumeRefusesRetiredOracleKnob: the fingerprint keeps the oracle's
// one configuration as "no-seed=false;no-strash=false;enum-cutoff=0", so
// the format fixture resumes (TestResumeCheckpointFixture), and the same
// file written under -no-seed, -no-strash or -enum-cutoff -1 is refused.
func TestResumeRefusesRetiredOracleKnob(t *testing.T) {
	raw, err := os.ReadFile(formatCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, knob := range []struct{ from, to string }{
		{"no-seed=false", "no-seed=true"},
		{"no-strash=false", "no-strash=true"},
		{"enum-cutoff=0", "enum-cutoff=-1"},
	} {
		if !strings.Contains(fixtureCampaign().Fingerprint(), ";"+knob.from+";") {
			t.Fatalf("fingerprint lost %q", knob.from)
		}
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, []byte(strings.Replace(string(raw), knob.from, knob.to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		c := fixtureCampaign()
		if err := c.Resume(path); err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("%s: checkpoint not refused: %v", knob.to, err)
		}
	}
}

// TestCheckpointSeed reads the master seed a checkpoint records, which
// dfcheck-fuzz -resume continues under when no -seed is given, and
// refuses files that are not checkpoints.
func TestCheckpointSeed(t *testing.T) {
	const seed = 339441336683046216
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := New(testConfig(seed, 2), testComparator()).SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	got, err := CheckpointSeed(path)
	if err != nil || got != seed {
		t.Fatalf("CheckpointSeed = %d, %v; want %d", got, err, seed)
	}
	if err := New(testConfig(got, 2), testComparator()).Resume(path); err != nil {
		t.Fatalf("resume under the recorded seed: %v", err)
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := writeFile(corrupt, `{"version":1,"tool":"dfcheck-campaign","seed":`); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{corrupt, filepath.Join(dir, "missing.json"), "testdata"} {
		if _, err := CheckpointSeed(p); err == nil {
			t.Errorf("CheckpointSeed(%s) did not fail", p)
		}
	}
}

// TestResumeRefusesBadData resumes copies of the format checkpoint with
// one field made impossible: an unknown finding kind, or a negative
// count. Each must be refused with an error naming the field, leaving
// the campaign untouched.
func TestResumeRefusesBadData(t *testing.T) {
	raw, err := os.ReadFile(formatCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	item := func(m map[string]any, list string, i int) map[string]any {
		return m[list].([]any)[i].(map[string]any)
	}
	for _, tc := range []struct {
		field  string
		mutate func(m map[string]any)
	}{
		{`kind "bogus"`, func(m map[string]any) { item(m, "findings", 2)["kind"] = "bogus" }},
		{`negative "next_batch"`, func(m map[string]any) { m["next_batch"] = -3 }},
		{`negative "batches_done"`, func(m map[string]any) { m["batches_done"] = -1 }},
		{`negative "exprs"`, func(m map[string]any) { m["exprs"] = -40 }},
		{`negative "consistency_checks"`, func(m map[string]any) { m["consistency_checks"] = -9 }},
		{`negative "same"`, func(m map[string]any) { item(m, "rows", 0)["same"] = -10 }},
		{`negative "llvm_more_precise"`, func(m map[string]any) { item(m, "rows", 1)["llvm_more_precise"] = -1 }},
		{`negative "exprs"`, func(m map[string]any) { item(m, "rows", 7)["exprs"] = -13 }},
		{`negative "cpu_time_ns"`, func(m map[string]any) { item(m, "rows", 7)["cpu_time_ns"] = -1 }},
		{`negative "escalated"`, func(m map[string]any) { m["nway"].(map[string]any)["escalated"] = -6 }},
		{`negative "reduce_steps"`, func(m map[string]any) { item(m, "findings", 2)["reduce_steps"] = -3 }},
	} {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := fixtureCampaign()
		err = c.Resume(path)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Resume = %v, want an error naming it", tc.field, err)
		}
		if c.NextBatch != 0 || !reflect.DeepEqual(c.Totals, newTotals()) {
			t.Errorf("%s: refused resume modified the campaign: next=%d totals=%+v", tc.field, c.NextBatch, c.Totals)
		}
	}
}

// FuzzResume feeds Resume arbitrary checkpoint files. It must not panic,
// and a file it accepts must give equal totals after SaveCheckpoint and
// a second Resume. Most inputs stop at the fingerprint; the seeds are
// checkpoints of fixtureCampaign, which get past it, and the committed
// fixtures.
func FuzzResume(f *testing.F) {
	c := fixtureCampaign()
	c.Totals, c.NextBatch = fixtureTotals(), 2
	path := filepath.Join(f.TempDir(), "seed.json")
	if err := c.SaveCheckpoint(path); err != nil {
		f.Fatal(err)
	}
	fixtures, err := filepath.Glob("testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range append(fixtures, path) {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path, saved := filepath.Join(dir, "ckpt.json"), filepath.Join(dir, "saved.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := fixtureCampaign()
		if c.Resume(path) != nil {
			return
		}
		if err := c.SaveCheckpoint(saved); err != nil {
			t.Fatal(err)
		}
		r := fixtureCampaign()
		if err := r.Resume(saved); err != nil {
			t.Fatalf("re-saved checkpoint refused: %v", err)
		}
		if r.NextBatch != c.NextBatch || !reflect.DeepEqual(r.Totals, c.Totals) {
			t.Fatalf("totals changed through SaveCheckpoint and Resume:\nfirst:  next=%d %+v\nsecond: next=%d %+v",
				c.NextBatch, c.Totals, r.NextBatch, r.Totals)
		}
	})
}
