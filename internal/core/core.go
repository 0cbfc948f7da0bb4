// Package core is the high-level entry point tying the system together:
// parse an expression in either textual form, compute the compiler-under-
// test's dataflow facts and the solver-based maximally precise facts, and
// compare them — the full pipeline of the paper's Figure 1 for a single
// expression.
package core

import (
	"fmt"
	"strings"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
	"dfcheck/internal/solver"
)

// Options configure a check.
type Options struct {
	// Budget bounds the solver conflicts one expression may spend,
	// shared across all its queries (0 = solver.DefaultConflictBudget).
	Budget int64
	// Bugs re-introduces historical soundness bugs into the compiler
	// under test (§4.7).
	Bugs llvmport.BugConfig
	// Modern applies the post-LLVM-8 precision improvements (§4.8).
	Modern bool
}

// ParseAuto reads an expression in Souper form (contains an "infer" line)
// or LLVM-like form (anything else).
func ParseAuto(src string) (*ir.Function, error) {
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "infer ") {
			return ir.Parse(src)
		}
	}
	return llvmir.Parse(src)
}

// Check runs every Table 1 analysis on one expression and returns the
// per-analysis comparisons.
func Check(f *ir.Function, opts Options) []compare.Result {
	c := &compare.Comparator{
		Analyzer: &llvmport.Analyzer{Bugs: opts.Bugs, Modern: opts.Modern},
		Budget:   opts.Budget,
	}
	return c.CompareExpr(f)
}

// CheckSource parses and checks in one step.
func CheckSource(src string, opts Options) ([]compare.Result, error) {
	f, err := ParseAuto(src)
	if err != nil {
		return nil, err
	}
	return Check(f, opts), nil
}

// Infer computes only the oracle facts (the artifact's souper-check
// -infer-* mode), on the engine and seed the comparator uses: one
// engine for all eight analyses, whose conflict budget they share.
func Infer(f *ir.Function, budget int64) oracle.All {
	return oracle.AnalyzeAllWith(solver.NewEngine(f, solver.Config{Budget: budget}), f, oracle.ComputeSeed(f))
}

// FormatResults renders comparison results the way the artifact's tool
// prints them.
func FormatResults(f *ir.Function, results []compare.Result) string {
	var sb strings.Builder
	sb.WriteString(f.String())
	for _, r := range results {
		label := string(r.Analysis)
		if r.Analysis == harvest.DemandedBits {
			label = fmt.Sprintf("%s for %%%s", r.Analysis, r.Var)
		}
		fmt.Fprintf(&sb, "%s from our tool: %s\n", label, r.OracleFact)
		fmt.Fprintf(&sb, "%s from llvm: %s\n", label, r.LLVMFact)
		fmt.Fprintf(&sb, "  -> %s\n", r.Outcome)
	}
	return sb.String()
}
