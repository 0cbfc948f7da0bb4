package compare

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dfcheck/internal/harvest"
)

// jsonRow is the machine-readable form of one Table 1 row.
type jsonRow struct {
	Analysis          string  `json:"analysis"`
	Same              int     `json:"same_precision"`
	OracleMorePrecise int     `json:"oracle_more_precise"`
	LLVMMorePrecise   int     `json:"llvm_more_precise"`
	ResourceExhausted int     `json:"resource_exhausted"`
	AvgCPUMillis      float64 `json:"avg_cpu_ms_per_expr"`
}

type jsonCache struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
}

type jsonReport struct {
	Rows              []jsonRow  `json:"rows"`
	Findings          []Finding  `json:"soundness_findings"`
	ConsistencyChecks int        `json:"consistency_checks,omitempty"`
	NWay              *NWayStats `json:"nway,omitempty"`
	Cache             *jsonCache `json:"cache,omitempty"`
}

// JSON renders the report as machine-readable JSON, rows in Table 1 order.
func (rep *Report) JSON() ([]byte, error) {
	// No findings encode as [], not null.
	out := jsonReport{Findings: append([]Finding{}, rep.Findings...), ConsistencyChecks: rep.ConsistencyChecks, NWay: rep.NWay}
	for _, a := range harvest.AllAnalyses {
		row := rep.Rows[a]
		if row == nil || row.Total() == 0 {
			continue
		}
		avg := 0.0
		if row.Exprs > 0 {
			avg = float64(row.CPUTime.Microseconds()) / float64(row.Exprs) / 1000
		}
		out.Rows = append(out.Rows, jsonRow{
			Analysis:          string(a),
			Same:              row.Same,
			OracleMorePrecise: row.OracleMP,
			LLVMMorePrecise:   row.LLVMMP,
			ResourceExhausted: row.Exhausted,
			AvgCPUMillis:      avg,
		})
	}
	if rep.Cache != nil {
		out.Cache = &jsonCache{
			Hits:    rep.Cache.Hits,
			Misses:  rep.Cache.Misses,
			HitRate: rep.Cache.HitRate(),
			Entries: rep.Cache.Entries,
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// Add folds o into rep, which must have rows (NewReport): it sums each
// row, appends o's findings, and adds o's consistency checks and n-way
// totals. A campaign keeps its cumulative Table 1 tallies this way, one
// batch report at a time.
func (rep *Report) Add(o *Report) {
	for a, row := range o.Rows {
		acc := rep.Rows[a]
		if acc == nil {
			acc = &Row{Analysis: a}
			rep.Rows[a] = acc
		}
		acc.Same += row.Same
		acc.OracleMP += row.OracleMP
		acc.LLVMMP += row.LLVMMP
		acc.Exhausted += row.Exhausted
		acc.Exprs += row.Exprs
		acc.CPUTime += row.CPUTime
	}
	rep.Findings = append(rep.Findings, o.Findings...)
	rep.ConsistencyChecks += o.ConsistencyChecks
	if o.NWay != nil {
		if rep.NWay == nil {
			rep.NWay = &NWayStats{}
		}
		n := rep.NWay
		n.Exprs += o.NWay.Exprs
		n.Agreed += o.NWay.Agreed
		n.Escalated += o.NWay.Escalated
		n.Dead += o.NWay.Dead
		n.Comparisons += o.NWay.Comparisons
		n.Disagreements += o.NWay.Disagreements
		n.Contradictions += o.NWay.Contradictions
	}
}

// Outcome returns the outcome every finding of kind k carries, and false
// for an unknown kind. The empty kind reads as soundness, which is what
// a finding without a kind meant before the consistency lint.
func (k FindingKind) Outcome() (Outcome, bool) {
	switch k {
	case FindingSoundness, "":
		return LLVMMorePrecise, true
	case FindingInconsistent:
		return Inconsistent, true
	case FindingVariant:
		return VariantsContradict, true
	}
	return 0, false
}

// Label names the findings of kind k in text reports and campaign
// progress lines; an empty or unknown kind reads as soundness.
func (k FindingKind) Label() string {
	switch k {
	case FindingInconsistent:
		return "INCONSISTENT"
	case FindingVariant:
		return "NWAY"
	}
	return "SOUNDNESS"
}

// CacheSummary renders the cache statistics of a cached run in one line,
// or "" for uncached runs. Callers print it to stderr so that the table
// on stdout stays byte-identical between cold and warm runs.
func (rep *Report) CacheSummary() string {
	if rep.Cache == nil {
		return ""
	}
	return rep.Cache.String()
}

// Table renders the report in the layout of the paper's Table 1.
func (rep *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %18s %18s %18s %18s %12s\n",
		"Dataflow", "Same precision", "Souper is more", "LLVM is more", "Resource", "Avg CPU")
	fmt.Fprintf(&sb, "%-14s %18s %18s %18s %18s %12s\n",
		"analysis", "", "precise", "precise", "exhaustion", "per expr")
	for _, a := range harvest.AllAnalyses {
		row := rep.Rows[a]
		if row == nil {
			continue
		}
		total := row.Total()
		if total == 0 {
			continue
		}
		pct := func(n int) string {
			return fmt.Sprintf("%d (%.1f%%)", n, 100*float64(n)/float64(total))
		}
		avg := time.Duration(0)
		if row.Exprs > 0 {
			avg = row.CPUTime / time.Duration(row.Exprs)
		}
		fmt.Fprintf(&sb, "%-14s %18s %18s %18s %18s %12s\n",
			a, pct(row.Same), pct(row.OracleMP), pct(row.LLVMMP), pct(row.Exhausted),
			avg.Round(10*time.Microsecond))
	}
	if rep.ConsistencyChecks > 0 {
		fmt.Fprintf(&sb, "\nconsistency checks: %d\n", rep.ConsistencyChecks)
	}
	if rep.NWay != nil {
		fmt.Fprintf(&sb, "\n%s\n", rep.NWay)
	}
	for _, kind := range []FindingKind{FindingSoundness, FindingInconsistent, FindingVariant} {
		var section []Finding
		for _, f := range rep.Findings {
			if f.Kind.Label() == kind.Label() {
				section = append(section, f)
			}
		}
		if len(section) > 0 {
			fmt.Fprintf(&sb, "\n%s FINDINGS (%d):\n\n", kind.Label(), len(section))
		}
		for _, f := range section {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
