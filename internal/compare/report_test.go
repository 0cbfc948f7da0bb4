package compare

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dfcheck/internal/harvest"
)

// goldenReport is a hand-built report holding every part of the JSON
// encoding: rows with and without comparisons, one finding of each kind
// (the n-way one reduced), consistency checks, n-way totals and cache
// statistics. Outcome and Elapsed are set so the golden file shows they
// stay out of the encoding.
func goldenReport() *Report {
	return &Report{
		Rows: map[harvest.Analysis]*Row{
			harvest.KnownBits: {Analysis: harvest.KnownBits, Same: 10, OracleMP: 3, LLVMMP: 1, Exhausted: 1,
				CPUTime: 45 * time.Millisecond, Exprs: 15},
			harvest.SignBits: {Analysis: harvest.SignBits, Same: 14, LLVMMP: 1,
				CPUTime: 7500 * time.Microsecond, Exprs: 15},
			harvest.DemandedBits: {Analysis: harvest.DemandedBits, Same: 20, OracleMP: 4, Exhausted: 2,
				CPUTime: 130 * time.Millisecond, Exprs: 13},
			harvest.IntegerRange: {Analysis: harvest.IntegerRange},
		},
		Findings: []Finding{
			{
				ExprName: "canary-srem-sign-bits",
				Source:   "%x:i8 = var\n%0:i8 = srem %x, 3:i8\ninfer %0",
				Kind:     FindingSoundness,
				Result: Result{Analysis: harvest.SignBits, Outcome: LLVMMorePrecise,
					OracleFact: "6", LLVMFact: "7", Elapsed: time.Millisecond},
			},
			{
				ExprName: "gen-000003",
				Source:   "%0:i8 = add 0:i8, 0:i8\ninfer %0",
				Kind:     FindingInconsistent,
				Result: Result{Analysis: ConsistencyAnalysis, Outcome: Inconsistent, Var: "add:i8",
					LLVMFact: "non-zero proved but known bits 00000000 and range [0,1) admit only zero"},
			},
			{
				ExprName: "gen-000007-mut0",
				Source:   "%x:i8 = var\n%y:i8 = var\n%0:i8 = srem %x, %y\n%1:i8 = and %0, 3:i8\ninfer %1",
				Kind:     FindingVariant,
				Result: Result{Analysis: harvest.KnownBits, Outcome: VariantsContradict, Var: "exact vs llvm8",
					OracleFact: "000000xx", LLVMFact: "00000x00", Elapsed: 2 * time.Millisecond},
				Reduced:     "%x:i8 = var\n%0:i8 = srem %x, 3:i8\ninfer %0",
				ReduceSteps: 3,
			},
			{
				ExprName: "gen-000011",
				Source:   "%x:i4 = var\n%0:i4 = lshr %x, 2:i4\ninfer %0",
				Kind:     FindingSoundness,
				Result: Result{Analysis: harvest.DemandedBits, Outcome: LLVMMorePrecise, Var: "%x",
					OracleFact: "1100", LLVMFact: "0100"},
			},
		},
		ConsistencyChecks: 9,
		NWay: &NWayStats{Exprs: 40, Agreed: 33, Escalated: 6, Dead: 1,
			Comparisons: 320, Disagreements: 11, Contradictions: 1},
		Cache:       &CacheStats{Hits: 5, Misses: 15, Entries: 12},
		Interrupted: true,
		Skipped:     2,
	}
}

// TestReportJSONGolden pins the -json encoding byte for byte: key names,
// key order, which keys are omitted when empty, and the rows' average
// CPU time, against testdata/report.golden.json.
func TestReportJSONGolden(t *testing.T) {
	got, err := goldenReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("Report.JSON differs from testdata/report.golden.json:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
