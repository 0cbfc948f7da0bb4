package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
)

// The checkpoint file is one JSON document: a version/tool header, the
// configuration fingerprint it was produced under, the next batch to
// run, and the cumulative tallies and findings. Like the result cache it
// is written atomically (temp file + rename) so a kill mid-write leaves
// the previous checkpoint intact, and loading validates everything
// before touching the campaign.

// CheckpointVersion identifies the state-file layout. Any other version
// fails to load rather than being misinterpreted.
const CheckpointVersion = 1

const checkpointTool = "dfcheck-campaign"

// modernRules names the Modern analyzer's rule set in the fingerprint.
// Change it whenever a Modern rule changes that analyzer's facts: "rev2"
// added the rotate and funnel-shift amount rule of demanded bits, and
// checkpoints from before it (plain modern=true) no longer resume.
const modernRules = "rev2"

type wireRow struct {
	Analysis  string `json:"analysis"`
	Same      int    `json:"same"`
	OracleMP  int    `json:"oracle_more_precise"`
	LLVMMP    int    `json:"llvm_more_precise"`
	Exhausted int    `json:"resource_exhausted"`
	Exprs     int    `json:"exprs"`
	CPUTimeNs int64  `json:"cpu_time_ns"`
}

type wireFinding struct {
	Expr string `json:"expr"`
	// Kind is "soundness" (oracle disagreement; also the meaning of an
	// absent field in pre-consistency checkpoints), "consistency"
	// (cross-domain contradiction), or "nway" (variant contradiction).
	Kind       string `json:"kind,omitempty"`
	Source     string `json:"source"`
	Analysis   string `json:"analysis"`
	Var        string `json:"var,omitempty"`
	OracleFact string `json:"oracle_fact"`
	LLVMFact   string `json:"llvm_fact"`
	// Reduced carries the 1-minimal reproducer when the campaign ran with
	// the reducer enabled.
	Reduced     string `json:"reduced,omitempty"`
	ReduceSteps int    `json:"reduce_steps,omitempty"`
}

// wireNWay persists the cumulative n-way pre-filter totals.
type wireNWay struct {
	Exprs          int `json:"exprs"`
	Agreed         int `json:"agreed"`
	Escalated      int `json:"escalated"`
	Dead           int `json:"dead"`
	Comparisons    int `json:"comparisons"`
	Disagreements  int `json:"disagreements"`
	Contradictions int `json:"contradictions"`
}

type wireCheckpoint struct {
	Version           int           `json:"version"`
	Tool              string        `json:"tool"`
	Config            string        `json:"config"`
	Seed              int64         `json:"seed"`
	NextBatch         int           `json:"next_batch"`
	Batches           int           `json:"batches_done"`
	Exprs             int           `json:"exprs"`
	ConsistencyChecks int           `json:"consistency_checks,omitempty"`
	NWay              *wireNWay     `json:"nway,omitempty"`
	Rows              []wireRow     `json:"rows"`
	Findings          []wireFinding `json:"findings"`
}

// Fingerprint renders every configuration knob that determines the
// campaign's results. A checkpoint only resumes under the fingerprint it
// was written with: resuming a -bug3 campaign without -bug3 would
// silently change what the remaining batches test — and the same holds
// for the ablation flags (-no-seed, -no-strash, -enum-cutoff), the
// n-way/reducer modes, and the extended-lint domain set (-domains), all
// of which change which results and findings the remaining batches can
// produce.
//
// Deliberately excluded: Workers (scheduling only;
// TestParallelRunMatchesSequential in internal/compare).
//
// The serving knobs (FactSvc, CacheShards) are conservatively INCLUDED:
// they have no equivalence test, and a serving campaign admits external
// query traffic that warms the cache nondeterministically between
// batches — resuming a served checkpoint unserved (or vice versa) is a
// different experiment.
//
// The Modern analyzer's facts change whenever one of its rules does, so
// under -modern the fingerprint also names the rule revision
// (modernRules); the LLVM-8 port does not change, and modern=false reads
// as it always has.
func (c *Campaign) Fingerprint() string {
	var an llvmport.Analyzer
	if c.Comparator != nil && c.Comparator.Analyzer != nil {
		an = *c.Comparator.Analyzer
	}
	cmp := c.Comparator
	if cmp == nil {
		cmp = &compare.Comparator{}
	}
	var budget int64 = cmp.Budget
	var exprTimeout time.Duration = cmp.ExprTimeout
	modern := "false"
	if an.Modern {
		modern = "true/" + modernRules
	}
	widths := ""
	for _, w := range c.Widths {
		widths += fmt.Sprintf("%d:%d,", w.Width, w.Weight)
	}
	return fmt.Sprintf("seed=%d;batches=%d;n=%d;max-insts=%d;widths=%s;max-width=%d;mutants=%d;canaries=%t;"+
		"budget=%d;expr-timeout=%s;bug-nonzero=%t;bug-sremsign=%t;bug-sremknown=%t;modern=%s;consistency=%t;"+
		"domains=%s;"+
		"no-seed=%t;no-strash=%t;enum-cutoff=%d;nway=%t;reduce=%t;"+
		"factsvc=%t;shards=%d",
		c.Seed, c.Batches, c.NumExprs, c.MaxInsts, widths, c.MaxCastWidth, c.Mutants, c.Canaries,
		budget, exprTimeout, an.Bugs.NonZeroAdd, an.Bugs.SRemSignBits, an.Bugs.SRemKnownBits, modern,
		cmp.Consistency, cmp.DomainNames(),
		cmp.NoSeed, cmp.NoStrash, cmp.EnumCutoff, cmp.NWay, cmp.Reduce,
		c.FactSvc, c.CacheShards)
}

// SaveCheckpoint writes the campaign state to path atomically: the file
// either holds the previous checkpoint or the new one, never a torn mix.
func (c *Campaign) SaveCheckpoint(path string) error {
	w := wireCheckpoint{
		Version:   CheckpointVersion,
		Tool:      checkpointTool,
		Config:    c.Fingerprint(),
		Seed:      c.Seed,
		NextBatch: c.NextBatch,
		Batches:   c.Totals.Batches,
		Exprs:     c.Totals.Exprs,
		Findings:  []wireFinding{},

		ConsistencyChecks: c.Totals.ConsistencyChecks,
	}
	if n := c.Totals.NWay; n != nil {
		w.NWay = &wireNWay{
			Exprs:          n.Exprs,
			Agreed:         n.Agreed,
			Escalated:      n.Escalated,
			Dead:           n.Dead,
			Comparisons:    n.Comparisons,
			Disagreements:  n.Disagreements,
			Contradictions: n.Contradictions,
		}
	}
	for _, a := range harvest.AllAnalyses {
		row := c.Totals.Rows[a]
		if row == nil {
			continue
		}
		w.Rows = append(w.Rows, wireRow{
			Analysis:  string(a),
			Same:      row.Same,
			OracleMP:  row.OracleMP,
			LLVMMP:    row.LLVMMP,
			Exhausted: row.Exhausted,
			Exprs:     row.Exprs,
			CPUTimeNs: int64(row.CPUTime),
		})
	}
	for _, f := range c.Totals.Findings {
		kind := f.Kind
		if kind == "" {
			kind = compare.FindingSoundness
		}
		w.Findings = append(w.Findings, wireFinding{
			Expr:        f.ExprName,
			Kind:        string(kind),
			Source:      f.Source,
			Analysis:    string(f.Result.Analysis),
			Var:         f.Result.Var,
			OracleFact:  f.Result.OracleFact,
			LLVMFact:    f.Result.LLVMFact,
			Reduced:     f.Reduced,
			ReduceSteps: f.ReduceSteps,
		})
	}
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data = append(data, '\n')

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Resume restores the campaign state from a checkpoint file written by
// SaveCheckpoint. The checkpoint's configuration fingerprint must match
// this campaign's exactly; a mismatch is an error, not a silent restart
// under different settings. Resume validates the whole file before
// modifying the campaign.
func (c *Campaign) Resume(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var w wireCheckpoint
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if w.Tool != checkpointTool {
		return fmt.Errorf("checkpoint %s: not a %s state file (tool %q)", path, checkpointTool, w.Tool)
	}
	if w.Version != CheckpointVersion {
		return fmt.Errorf("checkpoint %s: version %d, want %d", path, w.Version, CheckpointVersion)
	}
	if got := c.Fingerprint(); w.Config != got {
		return fmt.Errorf("checkpoint %s was written under a different configuration:\n  checkpoint: %s\n  current:    %s",
			path, w.Config, got)
	}
	valid := make(map[string]bool, len(harvest.AllAnalyses))
	for _, a := range harvest.AllAnalyses {
		valid[string(a)] = true
	}
	for _, row := range w.Rows {
		if !valid[row.Analysis] {
			return fmt.Errorf("checkpoint %s: unknown analysis %q", path, row.Analysis)
		}
	}
	// Findings may additionally be labeled with the consistency lint or
	// the transfer domains (n-way contradictions in tnum/stride carry
	// those names); none of these ever contributes a Table 1 row.
	valid[string(compare.ConsistencyAnalysis)] = true
	valid[string(harvest.Tnum)] = true
	valid[string(harvest.Stride)] = true
	for _, f := range w.Findings {
		if !valid[f.Analysis] {
			return fmt.Errorf("checkpoint %s: unknown analysis %q in finding", path, f.Analysis)
		}
	}

	t := newTotals()
	t.Batches = w.Batches
	t.Exprs = w.Exprs
	t.ConsistencyChecks = w.ConsistencyChecks
	for _, row := range w.Rows {
		t.Rows[harvest.Analysis(row.Analysis)] = &compare.Row{
			Analysis:  harvest.Analysis(row.Analysis),
			Same:      row.Same,
			OracleMP:  row.OracleMP,
			LLVMMP:    row.LLVMMP,
			Exhausted: row.Exhausted,
			Exprs:     row.Exprs,
			CPUTime:   time.Duration(row.CPUTimeNs),
		}
	}
	for _, f := range w.Findings {
		kind := compare.FindingKind(f.Kind)
		if kind == "" {
			kind = compare.FindingSoundness // pre-consistency checkpoints
		}
		outcome := compare.LLVMMorePrecise
		switch kind {
		case compare.FindingInconsistent:
			outcome = compare.Inconsistent
		case compare.FindingVariant:
			outcome = compare.VariantsContradict
		}
		t.Findings = append(t.Findings, compare.Finding{
			ExprName:    f.Expr,
			Source:      f.Source,
			Kind:        kind,
			Reduced:     f.Reduced,
			ReduceSteps: f.ReduceSteps,
			Result: compare.Result{
				Analysis:   harvest.Analysis(f.Analysis),
				Outcome:    outcome,
				Var:        f.Var,
				OracleFact: f.OracleFact,
				LLVMFact:   f.LLVMFact,
			},
		})
	}
	if w.NWay != nil {
		t.NWay = &compare.NWayStats{
			Exprs:          w.NWay.Exprs,
			Agreed:         w.NWay.Agreed,
			Escalated:      w.NWay.Escalated,
			Dead:           w.NWay.Dead,
			Comparisons:    w.NWay.Comparisons,
			Disagreements:  w.NWay.Disagreements,
			Contradictions: w.NWay.Contradictions,
		}
	}
	c.Totals = t
	c.NextBatch = w.NextBatch
	return nil
}
