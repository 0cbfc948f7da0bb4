// perf-table regenerates the paper's Table 2: the impact of maximally
// precise dataflow facts on generated code. The baseline compiler
// optimizes each synthetic kernel with the LLVM-port facts; the precise
// compiler uses the solver-based oracle. Both results run under two
// machine cycle models standing in for the paper's AMD and Intel hosts.
package main

import (
	"flag"
	"fmt"
	"os"

	"dfcheck/internal/opt"
)

func main() {
	var (
		workload = flag.Int("workload", 1000, "inputs per kernel")
		budget   = flag.Int64("solver-budget", 0, "conflict budget per instruction the precise compiler asks the oracle about, shared by its queries (0 = default)")
	)
	flag.Parse()

	rows, err := opt.RunTable2(*budget, *workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf-table:", err)
		os.Exit(1)
	}

	fmt.Println("Table 2: impact of maximally precise dataflow facts on generated code.")
	fmt.Println("The baseline compiler uses the LLVM-port analyses; the precise compiler")
	fmt.Println("uses the solver-based oracle (and is, as §4.6 warns, much slower).")
	fmt.Println()
	fmt.Printf("%-18s %-7s %14s %14s %10s %14s %14s\n",
		"Benchmark", "Machine", "Baseline cyc", "Precise cyc", "Speedup", "Base compile", "Precise compile")
	for _, r := range rows {
		fmt.Printf("%-18s %-7s %14d %14d %+9.2f%% %14s %14s\n",
			r.Benchmark, r.Machine, r.BaselineCycles, r.PreciseCycles, r.SpeedupPct,
			r.BaselineOptTime.Round(1000), r.PreciseOptTime.Round(1000))
	}
}
