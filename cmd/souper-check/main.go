// souper-check mirrors the paper artifact's CLI: it reads one expression
// (Souper or LLVM-like textual form) and either infers maximally precise
// dataflow facts with the solver-based oracle (-infer-* flags, matching
// the artifact's option names), prints the LLVM-port compiler's facts
// (-print-*-at-return flags), or compares both sides (-compare).
//
//	souper-check -infer-known-bits input.opt
//	souper-check -print-known-at-return input.opt
//	souper-check -compare -bug2 input.opt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dfcheck/internal/core"
	"dfcheck/internal/llvmir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/opt"
	"dfcheck/internal/oracle"
	"dfcheck/internal/solver"
)

func main() {
	var (
		inferKnown    = flag.Bool("infer-known-bits", false, "oracle: maximally precise known bits")
		inferSign     = flag.Bool("infer-sign-bits", false, "oracle: maximally precise sign bits")
		inferNeg      = flag.Bool("infer-neg", false, "oracle: provably negative")
		inferNonNeg   = flag.Bool("infer-non-neg", false, "oracle: provably non-negative")
		inferNonZero  = flag.Bool("infer-non-zero", false, "oracle: provably non-zero")
		inferPow2     = flag.Bool("infer-power-two", false, "oracle: provably a power of two")
		inferRange    = flag.Bool("infer-range", false, "oracle: maximally precise integer range")
		inferDemanded = flag.Bool("infer-demanded-bits", false, "oracle: demanded bits per input")

		printKnown    = flag.Bool("print-known-at-return", false, "compiler: known bits")
		printSign     = flag.Bool("print-sign-bits-at-return", false, "compiler: sign bits")
		printNeg      = flag.Bool("print-neg-at-return", false, "compiler: negative")
		printNonNeg   = flag.Bool("print-nonneg-at-return", false, "compiler: non-negative")
		printNonZero  = flag.Bool("print-non-zero-at-return", false, "compiler: non-zero")
		printPow2     = flag.Bool("print-power-two-at-return", false, "compiler: power of two")
		printRange    = flag.Bool("print-range-at-return", false, "compiler: integer range")
		printDemanded = flag.Bool("print-demanded-bits-from-harvester", false, "compiler: demanded bits")

		compareAll = flag.Bool("compare", false, "run every analysis on both sides and classify")
		optimize   = flag.Bool("optimize", false, "print the expression after fact-driven optimization (baseline facts)")
		optPrecise = flag.Bool("optimize-precise", false, "like -optimize but with the maximally precise oracle facts (slow, §4.6)")
		emitLLVM   = flag.Bool("emit-llvm", false, "print the expression in LLVM-like syntax (souper2llvm) and exit")
		budget     = flag.Int64("solver-budget", 0, "conflict budget per engine, shared by its queries: one engine per -infer flag, one per expression under -compare (0 = default, stands in for the paper's 30s Z3 timeout)")
		bug1       = flag.Bool("bug1", false, "re-introduce the r124183 isKnownNonZero bug")
		bug2       = flag.Bool("bug2", false, "re-introduce the PR23011 srem sign-bits bug")
		bug3       = flag.Bool("bug3", false, "re-introduce the PR12541 srem known-bits bug")
		modern     = flag.Bool("modern", false, "use the post-LLVM-8 compiler (§4.8 improvements applied)")
	)
	flag.Parse()

	src, err := readInput(flag.Args())
	if err != nil {
		fatal(err)
	}
	f, err := core.ParseAuto(src)
	if err != nil {
		fatal(err)
	}
	bugs := llvmport.BugConfig{NonZeroAdd: *bug1, SRemSignBits: *bug2, SRemKnownBits: *bug3}

	if *emitLLVM {
		fmt.Print(llvmir.Print(f))
		return
	}
	if *optimize || *optPrecise {
		var src opt.FactSource
		if *optPrecise {
			src = opt.NewOracleSource(f, *budget)
		} else {
			src = opt.NewBaselineSource(f)
		}
		optimized := opt.Optimize(f, src)
		fmt.Printf("; %d instructions before, %d after\n", f.NumInsts(), optimized.NumInsts())
		fmt.Print(optimized)
		return
	}
	if *compareAll {
		results := core.Check(f, core.Options{Budget: *budget, Bugs: bugs, Modern: *modern})
		fmt.Print(core.FormatResults(f, results))
		return
	}

	fa := (&llvmport.Analyzer{Bugs: bugs, Modern: *modern}).Analyze(f)
	// Each -infer flag runs its analysis on an engine of its own, built
	// and seeded as the comparator builds and seeds one.
	eng := func() solver.Engine { return solver.NewEngine(f, solver.Config{Budget: *budget}) }
	sd := oracle.ComputeSeed(f)
	printed := false
	show := func(label, value string) {
		fmt.Printf("%s: %s\n", label, value)
		printed = true
	}

	if *inferKnown {
		r := oracle.KnownBitsSeeded(eng(), f, sd)
		show("known bits from our tool", r.Bits.String()+exhaustedSuffix(r.Exhausted))
	}
	if *inferSign {
		r := oracle.SignBitsSeeded(eng(), f, sd)
		show("known sign bits from our tool", fmt.Sprint(r.NumSignBits)+exhaustedSuffix(r.Exhausted))
	}
	if *inferNeg {
		r := oracle.NegativeSeeded(eng(), f, sd)
		show("negative from our tool", fmt.Sprint(r.Proved)+exhaustedSuffix(r.Exhausted))
	}
	if *inferNonNeg {
		r := oracle.NonNegativeSeeded(eng(), f, sd)
		show("non-negative from our tool", fmt.Sprint(r.Proved)+exhaustedSuffix(r.Exhausted))
	}
	if *inferNonZero {
		r := oracle.NonZeroSeeded(eng(), f, sd)
		show("non-zero from our tool", fmt.Sprint(r.Proved)+exhaustedSuffix(r.Exhausted))
	}
	if *inferPow2 {
		r := oracle.PowerOfTwoSeeded(eng(), f, sd)
		show("power of two from our tool", fmt.Sprint(r.Proved)+exhaustedSuffix(r.Exhausted))
	}
	if *inferRange {
		r := oracle.IntegerRangeSeeded(eng(), f, sd)
		show("range from our tool", r.Range.String()+exhaustedSuffix(r.Exhausted))
	}
	if *inferDemanded {
		r := oracle.DemandedBitsSeeded(eng(), f, sd)
		for _, name := range f.SortedVarNames() {
			show("demanded bits from our tool for %"+name, r.Demanded[name].BitString())
		}
	}

	if *printKnown {
		show("known bits from llvm", fa.KnownBits().String())
	}
	if *printSign {
		show("known sign bits from llvm", fmt.Sprint(fa.NumSignBits()))
	}
	if *printNeg {
		show("negative from llvm", fmt.Sprint(fa.Negative()))
	}
	if *printNonNeg {
		show("non-negative from llvm", fmt.Sprint(fa.NonNegative()))
	}
	if *printNonZero {
		show("non-zero from llvm", fmt.Sprint(fa.NonZero()))
	}
	if *printPow2 {
		show("power of two from llvm", fmt.Sprint(fa.PowerOfTwo()))
	}
	if *printRange {
		show("range from llvm", fa.Range().String())
	}
	if *printDemanded {
		d := fa.DemandedBits()
		for _, name := range f.SortedVarNames() {
			show("demanded bits from llvm for %"+name, d[name].BitString())
		}
	}

	if !printed {
		fmt.Fprintln(os.Stderr, "no analysis selected; see -help (e.g. -infer-known-bits, -compare)")
		os.Exit(2)
	}
}

func exhaustedSuffix(ex bool) string {
	if ex {
		return " (resource exhaustion: sound but possibly imprecise)"
	}
	return ""
}

func readInput(args []string) (string, error) {
	if len(args) == 0 {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(args[0])
	return string(data), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "souper-check:", err)
	os.Exit(1)
}
