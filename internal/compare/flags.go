package compare

import (
	"flag"
	"runtime"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/llvmport"
)

// RegisterFlags defines on fs the comparator flags precision-table and
// dfcheck-fuzz share, each bound to its field of c, so every knob has
// one name, one default and one help text. A nil Analyzer is replaced by
// the LLVM-8 port, which the -bug and -modern flags then configure.
func (c *Comparator) RegisterFlags(fs *flag.FlagSet) {
	if c.Analyzer == nil {
		c.Analyzer = &llvmport.Analyzer{}
	}
	an := c.Analyzer
	fs.BoolVar(&an.Bugs.NonZeroAdd, "bug1", false, "inject the r124183 isKnownNonZero bug")
	fs.BoolVar(&an.Bugs.SRemSignBits, "bug2", false, "inject the PR23011 srem sign-bits bug")
	fs.BoolVar(&an.Bugs.SRemKnownBits, "bug3", false, "inject the PR12541 srem known-bits bug")
	fs.BoolVar(&an.Modern, "modern", false, "use the post-LLVM-8 compiler (the §4.8 improvements applied)")
	fs.Int64Var(&c.Budget, "solver-budget", 0, "conflict budget per expression, shared by its queries (0 = default)")
	fs.IntVar(&c.Workers, "j", runtime.NumCPU(), "expressions compared concurrently")
	fs.DurationVar(&c.ExprTimeout, "expr-timeout", 5*time.Minute, "total oracle time per expression (the paper's 5-minute cap; 0 disables)")
	fs.BoolVar(&c.Consistency, "consistency", true, "cross-check the compiler's own domains on every expression (solver-free reduced-product lint)")
	fs.Func("domains", "extend the consistency lint's reduced product with these transfer domains (comma-separated, e.g. tnum,stride; empty = classic four-domain lint)", func(names string) (err error) {
		c.Domains, err = absint.TransferDomainsByNames(names)
		return err
	})
	fs.BoolVar(&c.NWay, "nway", false, "n-way differential mode: cross-check all analyzer variants per expression and escalate to the SAT oracle only on disagreement")
	fs.BoolVar(&c.Reduce, "reduce", false, "shrink every finding to a 1-minimal reproducer preserving its finding kind (delta debugging)")
}
