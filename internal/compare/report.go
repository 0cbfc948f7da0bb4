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

type jsonFinding struct {
	Expr        string `json:"expr"`
	Kind        string `json:"kind,omitempty"`
	Analysis    string `json:"analysis"`
	Var         string `json:"var,omitempty"`
	OracleFact  string `json:"oracle_fact"`
	LLVMFact    string `json:"llvm_fact"`
	Source      string `json:"source"`
	Reduced     string `json:"reduced,omitempty"`
	ReduceSteps int    `json:"reduce_steps,omitempty"`
}

// jsonNWay is the machine-readable form of the n-way pre-filter summary.
type jsonNWay struct {
	Exprs          int `json:"exprs"`
	Agreed         int `json:"agreed"`
	Escalated      int `json:"escalated"`
	Dead           int `json:"dead"`
	Comparisons    int `json:"comparisons"`
	Disagreements  int `json:"disagreements"`
	Contradictions int `json:"contradictions"`
}

type jsonCache struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
}

type jsonReport struct {
	Rows              []jsonRow     `json:"rows"`
	Findings          []jsonFinding `json:"soundness_findings"`
	ConsistencyChecks int           `json:"consistency_checks,omitempty"`
	NWay              *jsonNWay     `json:"nway,omitempty"`
	Cache             *jsonCache    `json:"cache,omitempty"`
}

// JSON renders the report as machine-readable JSON, rows in Table 1 order.
func (rep *Report) JSON() ([]byte, error) {
	out := jsonReport{Findings: []jsonFinding{}}
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
	for _, f := range rep.Findings {
		kind := f.Kind
		if kind == "" {
			kind = FindingSoundness
		}
		out.Findings = append(out.Findings, jsonFinding{
			Expr:        f.ExprName,
			Kind:        string(kind),
			Analysis:    string(f.Result.Analysis),
			Var:         f.Result.Var,
			OracleFact:  f.Result.OracleFact,
			LLVMFact:    f.Result.LLVMFact,
			Source:      f.Source,
			Reduced:     f.Reduced,
			ReduceSteps: f.ReduceSteps,
		})
	}
	out.ConsistencyChecks = rep.ConsistencyChecks
	if rep.NWay != nil {
		out.NWay = &jsonNWay{
			Exprs:          rep.NWay.Exprs,
			Agreed:         rep.NWay.Agreed,
			Escalated:      rep.NWay.Escalated,
			Dead:           rep.NWay.Dead,
			Comparisons:    rep.NWay.Comparisons,
			Disagreements:  rep.NWay.Disagreements,
			Contradictions: rep.NWay.Contradictions,
		}
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

// CacheSummary renders the cache statistics of a cached run in one line,
// or "" for uncached runs. Callers print it to stderr so that the table
// on stdout stays byte-identical between cold and warm runs.
func (rep *Report) CacheSummary() string {
	s := rep.Cache
	if s == nil {
		return ""
	}
	return fmt.Sprintf("cache: %d hits, %d misses (%.1f%% hit rate), %d entries",
		s.Hits, s.Misses, 100*s.HitRate(), s.Entries)
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
	if s := rep.NWay; s != nil {
		fmt.Fprintf(&sb, "\nnway: %d exprs (%d agreed, %d escalated, %d dead); %d comparisons, %d disagreements, %d contradictions\n",
			s.Exprs, s.Agreed, s.Escalated, s.Dead, s.Comparisons, s.Disagreements, s.Contradictions)
	}
	var sound, incons, variant []Finding
	for _, f := range rep.Findings {
		switch f.Kind {
		case FindingInconsistent:
			incons = append(incons, f)
		case FindingVariant:
			variant = append(variant, f)
		default:
			sound = append(sound, f)
		}
	}
	if len(sound) > 0 {
		fmt.Fprintf(&sb, "\nSOUNDNESS FINDINGS (%d):\n\n", len(sound))
		for _, f := range sound {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
	}
	if len(incons) > 0 {
		fmt.Fprintf(&sb, "\nINCONSISTENT FINDINGS (%d):\n\n", len(incons))
		for _, f := range incons {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
	}
	if len(variant) > 0 {
		fmt.Fprintf(&sb, "\nNWAY FINDINGS (%d):\n\n", len(variant))
		for _, f := range variant {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
