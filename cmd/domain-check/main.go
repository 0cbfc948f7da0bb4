// Command domain-check exhaustively verifies the transfer functions of
// the compiler under test (internal/llvmport) for soundness and maximal
// precision at small bit widths, and cross-checks the four abstract
// domains against each other for consistency. It is the solver-free
// counterpart to dfcheck-fuzz: no SAT query is issued — every abstract
// output is graded against the fully enumerated concrete image, so a
// reported unsoundness comes with a concrete counterexample and a
// minimal abstract witness.
//
//	domain-check                 # clean LLVM-8 port, widths 1..4
//	domain-check -w 6 -bug2      # re-broken ComputeNumSignBits, widths 1..6
//	domain-check -ops add,srem   # restrict the sweep to two ops
//	domain-check -domains tnum,stride  # sweep only the transfer domains
//	domain-check -list           # print the registered domains and exit
//
// Exit status is 1 when any soundness or consistency finding survives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/tnum"
)

func main() {
	var (
		maxW       = flag.Uint("w", 4, "max operand width to sweep (clamped to 6)")
		minW       = flag.Uint("min-w", 1, "min operand width to sweep")
		maxRangeW  = flag.Uint("max-range-width", 4, "max width for the integer-range input sweep (element count grows as 4^w)")
		workers    = flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS)")
		opsFlag    = flag.String("ops", "", "comma-separated op names to sweep (default: all)")
		domsFlag   = flag.String("domains", "", "comma-separated domains to sweep (default: all registered; see -list)")
		list       = flag.Bool("list", false, "print the registered domain names and exit")
		lint       = flag.Bool("consistency", true, "cross-check domains against each other on every harness expression")
		jsonOut    = flag.Bool("json", false, "emit the full report as JSON")
		verbose    = flag.Bool("v", false, "print every per-width stat row, not just the per-op table")
		quiet      = flag.Bool("q", false, "print findings only")
		bug1       = flag.Bool("bug1", false, "re-introduce the r124183 isKnownNonZero add bug")
		bug2       = flag.Bool("bug2", false, "re-introduce the PR23011 ComputeNumSignBits srem bug")
		bug3       = flag.Bool("bug3", false, "re-introduce the PR12541 computeKnownBits srem bug")
		bugTnumMul = flag.Bool("bug-tnum-mul", false, "seed the off-by-one tnum multiply mask bug")
		modern     = flag.Bool("modern", false, "test the post-LLVM-8 analyzer instead of the LLVM-8 port")
		noProgress = flag.Bool("no-progress", false, "suppress the progress line")
	)
	flag.Parse()

	if *list {
		for _, d := range absint.AllInputDomains() {
			fmt.Println(strings.ReplaceAll(d.Name(), " ", "-"))
		}
		return
	}

	doms, err := absint.DomainsByNames(*domsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "domain-check: %v (see -list)\n", err)
		os.Exit(2)
	}
	if doms == nil {
		doms = absint.AllInputDomains()
	}
	if *bugTnumMul {
		for i, d := range doms {
			if d.Name() == "tnum" {
				doms[i] = absint.TnumsWithBugs(tnum.Bugs{MulMask: true})
			}
		}
	}

	cfg := absint.Config{
		Analyzer: &llvmport.Analyzer{
			Bugs: llvmport.BugConfig{
				NonZeroAdd:    *bug1,
				SRemSignBits:  *bug2,
				SRemKnownBits: *bug3,
			},
			Modern: *modern,
		},
		MinWidth:      *minW,
		MaxWidth:      *maxW,
		MaxRangeWidth: *maxRangeW,
		Workers:       *workers,
		Lint:          *lint,
		Domains:       doms,
	}
	if *opsFlag != "" {
		for _, name := range strings.Split(*opsFlag, ",") {
			op, ok := ir.OpFromName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "domain-check: unknown op %q\n", name)
				os.Exit(2)
			}
			cfg.Ops = append(cfg.Ops, op)
		}
	}
	if !*noProgress && !*jsonOut {
		cfg.Progress = func(done, total int) {
			if done == total || done%50 == 0 {
				fmt.Fprintf(os.Stderr, "\rdomain-check: %d/%d tasks", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	start := time.Now()
	rep := absint.Verify(cfg)
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "domain-check: %v\n", err)
			os.Exit(2)
		}
	} else {
		if !*quiet {
			if *verbose {
				fmt.Printf("%-18s %-10s %-14s %-14s %10s %10s %10s %8s %6s\n",
					"OP", "WIDTH", "INPUT", "DOMAIN", "TUPLES", "PRECISE", "IMPRECISE", "UNSOUND", "DEAD")
				for _, st := range rep.Stats {
					fmt.Printf("%-18s %-10s %-14s %-14s %10d %10d %10d %8d %6d\n",
						st.Op, st.Width, st.InDomain, st.Domain, st.Tuples, st.Precise, st.Imprecise, st.Unsound, st.Dead)
				}
				fmt.Println()
			}
			fmt.Print(rep.OpTable())
			fmt.Println()
			fmt.Print(rep.Summary())
			fmt.Printf("wall clock: %s, SAT queries: 0\n", elapsed.Round(time.Millisecond))
		}
		if len(rep.Findings) > 0 {
			fmt.Printf("\nFINDINGS (%d)\n", len(rep.Findings))
			for _, w := range rep.Findings {
				fmt.Printf("  %s\n", w)
			}
		} else if !*quiet {
			fmt.Println("no soundness or consistency findings")
		}
	}
	if !rep.Sound() {
		os.Exit(1)
	}
}
