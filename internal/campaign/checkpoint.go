package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

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

// wireCheckpoint is the file layout. Rows, findings and n-way totals
// use compare's JSON encoding, the one -json reports use.
type wireCheckpoint struct {
	Version           int                `json:"version"`
	Tool              string             `json:"tool"`
	Config            string             `json:"config"`
	Seed              int64              `json:"seed"`
	NextBatch         int                `json:"next_batch"`
	Batches           int                `json:"batches_done"`
	Exprs             int                `json:"exprs"`
	ConsistencyChecks int                `json:"consistency_checks,omitempty"`
	NWay              *compare.NWayStats `json:"nway,omitempty"`
	Rows              []compare.Row      `json:"rows"`
	// Findings carry a kind: "soundness" (oracle disagreement; also the
	// meaning of an absent kind in pre-consistency checkpoints),
	// "consistency" (cross-domain contradiction) or "nway" (variant
	// contradiction).
	Findings []compare.Finding `json:"findings"`
}

// Fingerprint renders every configuration knob that determines the
// campaign's results. A checkpoint only resumes under the fingerprint it
// was written with: resuming a -bug3 campaign without -bug3 would
// silently change what the remaining batches test — and the same holds
// for the n-way/reducer modes and the extended-lint domain set
// (-domains), all of which change which results and findings the
// remaining batches can produce.
//
// The oracle has one configuration. The fingerprint still spells it
// "no-seed=false;no-strash=false;enum-cutoff=0", as it read while those
// were settings, so checkpoints written then keep resuming and ones
// written under another value are refused.
//
// Deliberately excluded: Workers (scheduling only;
// TestParallelRunMatchesSequential in internal/compare).
//
// The serving knobs (FactSvc, and the stripe count of the comparator's
// cache) are conservatively INCLUDED:
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
	cmp := c.Comparator
	if cmp == nil {
		cmp = &compare.Comparator{}
	}
	var an llvmport.Analyzer
	if cmp.Analyzer != nil {
		an = *cmp.Analyzer
	}
	shards := 0
	if cmp.Cache != nil {
		shards = cmp.Cache.Shards()
	}
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
		"no-seed=false;no-strash=false;enum-cutoff=0;nway=%t;reduce=%t;"+
		"factsvc=%t;shards=%d",
		c.Seed, c.Batches, c.NumExprs, c.MaxInsts, widths, c.MaxCastWidth, c.Mutants, c.Canaries,
		cmp.Budget, cmp.ExprTimeout, an.Bugs.NonZeroAdd, an.Bugs.SRemSignBits, an.Bugs.SRemKnownBits, modern,
		cmp.Consistency, cmp.DomainNames(),
		cmp.NWay, cmp.Reduce,
		c.FactSvc, shards)
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
		NWay:      c.Totals.NWay,
		Findings:  append([]compare.Finding{}, c.Totals.Findings...), // [] rather than null when there are none

		ConsistencyChecks: c.Totals.ConsistencyChecks,
	}
	for _, a := range harvest.AllAnalyses {
		if row := c.Totals.Rows[a]; row != nil {
			w.Rows = append(w.Rows, *row)
		}
	}
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data = append(data, '\n')

	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint reads and decodes a checkpoint file and refuses what no
// campaign writes: another tool's file or layout version, a negative
// count, an analysis outside Table 1 (findings may also name the
// consistency lint and the transfer domains, whose n-way contradictions
// carry those names), or an unknown finding kind.
func readCheckpoint(path string) (*wireCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var w wireCheckpoint
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if w.Tool != checkpointTool {
		return nil, fmt.Errorf("checkpoint %s: not a %s state file (tool %q)", path, checkpointTool, w.Tool)
	}
	if w.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d", path, w.Version, CheckpointVersion)
	}
	if key := negativeCount(data); key != "" {
		return nil, fmt.Errorf("checkpoint %s: negative %q", path, key)
	}
	for _, row := range w.Rows {
		if !slices.Contains(harvest.AllAnalyses, row.Analysis) {
			return nil, fmt.Errorf("checkpoint %s: unknown analysis %q", path, row.Analysis)
		}
	}
	labels := append([]harvest.Analysis{compare.ConsistencyAnalysis, harvest.Tnum, harvest.Stride}, harvest.AllAnalyses...)
	for _, f := range w.Findings {
		if !slices.Contains(labels, f.Analysis) {
			return nil, fmt.Errorf("checkpoint %s: unknown analysis %q in finding", path, f.Analysis)
		}
		if _, ok := f.Kind.Outcome(); !ok {
			return nil, fmt.Errorf("checkpoint %s: unknown kind %q in finding", path, f.Kind)
		}
	}
	return &w, nil
}

// negativeCount returns the key of the first negative number in a
// checkpoint's JSON text, or "". Every number in a checkpoint but the
// master seed counts something or indexes a batch. In an object a number
// directly follows its key, and checkpoints hold no arrays of numbers.
func negativeCount(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	key := ""
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		switch tok := tok.(type) {
		case string:
			key = tok
		case float64:
			if tok < 0 && key != "seed" {
				return key
			}
		}
	}
}

// CheckpointSeed returns the master seed recorded in the checkpoint at
// path: a campaign resumed without an explicit seed continues under it.
func CheckpointSeed(path string) (int64, error) {
	w, err := readCheckpoint(path)
	if err != nil {
		return 0, err
	}
	return w.Seed, nil
}

// Resume restores the campaign state from a checkpoint file written by
// SaveCheckpoint. The checkpoint's configuration fingerprint must match
// this campaign's exactly; a mismatch is an error, not a silent restart
// under different settings. Resume validates the whole file before
// modifying the campaign.
func (c *Campaign) Resume(path string) error {
	w, err := readCheckpoint(path)
	if err != nil {
		return err
	}
	if got := c.Fingerprint(); w.Config != got {
		return fmt.Errorf("checkpoint %s was written under a different configuration:\n  checkpoint: %s\n  current:    %s",
			path, w.Config, got)
	}

	t := newTotals()
	t.Batches, t.Exprs = w.Batches, w.Exprs
	t.ConsistencyChecks, t.NWay = w.ConsistencyChecks, w.NWay
	for i := range w.Rows {
		t.Rows[w.Rows[i].Analysis] = &w.Rows[i]
	}
	for i := range w.Findings {
		f := &w.Findings[i]
		if f.Kind == "" {
			f.Kind = compare.FindingSoundness // pre-consistency checkpoints
		}
		f.Outcome, _ = f.Kind.Outcome()
	}
	if len(w.Findings) > 0 {
		t.Findings = w.Findings
	}
	c.Totals = t
	c.NextBatch = w.NextBatch
	return nil
}
