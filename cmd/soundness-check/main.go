// soundness-check regenerates §4.7: it re-introduces each of the three
// previously-fixed LLVM soundness bugs into the compiler under test, runs
// the comparator on the paper's trigger expressions, and shows the tool
// catching every bug ("llvm is stronger"). It also verifies the clean
// compiler is NOT flagged on the same triggers.
package main

import (
	"flag"
	"fmt"
	"os"

	"dfcheck/internal/compare"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
)

func main() {
	budget := flag.Int64("solver-budget", 0, "conflict budget per expression, shared by its queries (0 = default)")
	flag.Parse()

	ok := true
	for _, tr := range harvest.SoundnessTriggers {
		var bugs llvmport.BugConfig
		var patch string
		switch tr.Bug {
		case 1:
			bugs.NonZeroAdd = true
			patch = "r124183 (fixed in r124184/r124188)"
		case 2:
			bugs.SRemSignBits = true
			patch = "PR23011 (fixed in r233225)"
		case 3:
			bugs.SRemKnownBits = true
			patch = "PR12541 (fixed in r155818)"
		}
		fmt.Printf("=== Soundness bug %d: %s — %s ===\n\n", tr.Bug, tr.Name, patch)

		f := ir.MustParse(tr.Source)
		buggy := &compare.Comparator{Analyzer: &llvmport.Analyzer{Bugs: bugs}, Budget: *budget}
		caught := false
		for _, r := range buggy.CompareExpr(f) {
			if r.Analysis != tr.Analysis {
				continue
			}
			fmt.Print(f.String())
			fmt.Printf("%s from our tool: %s\n", r.Analysis, r.OracleFact)
			fmt.Printf("%s from llvm: %s\n", r.Analysis, r.LLVMFact)
			if r.Outcome == compare.LLVMMorePrecise {
				fmt.Println("llvm is stronger  [BUG DETECTED]")
				caught = true
			} else {
				fmt.Printf("-> %s  [BUG MISSED]\n", r.Outcome)
			}
		}
		if !caught {
			ok = false
		}

		clean := &compare.Comparator{Analyzer: &llvmport.Analyzer{}, Budget: *budget}
		for _, r := range clean.CompareExpr(ir.MustParse(tr.Source)) {
			if r.Analysis != tr.Analysis {
				continue
			}
			if r.Outcome == compare.LLVMMorePrecise {
				fmt.Println("clean compiler incorrectly flagged!")
				ok = false
			} else {
				fmt.Printf("\n(clean compiler on the same trigger: %s — as expected)\n", r.Outcome)
			}
		}
		fmt.Println()
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "soundness-check: FAILED")
		os.Exit(1)
	}
	fmt.Println("All three re-introduced bugs detected; clean compiler not flagged.")
}
