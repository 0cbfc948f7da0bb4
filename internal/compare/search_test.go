package compare

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestSearchGolden pins the oracle's search over the table1 corpus
// (precision-table -n 120 at its defaults, the benchmark's corpus):
// expression by expression, oracleFor's eight facts and its engine's
// counters must equal testdata/search.golden. The counters (queries,
// conflicts, decisions, propagations, restarts, learnt clauses) move
// with any change to what the SAT search does, even one that moves no
// fact, so a change meant only to make the search cheaper leaves this
// file byte-identical, and one that changes the search shows as a diff.
// Regenerate with -update-golden.
func TestSearchGolden(t *testing.T) {
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, ExprTimeout: 5 * time.Minute}
	var sb strings.Builder
	for _, e := range precisionTableCorpus(120, 8, 16) {
		o := c.oracleFor(context.Background(), e.F)
		outcome := func(out oracle.Outcome) string {
			s := "infeasible"
			if out.Feasible {
				s = "feasible"
			}
			if out.Exhausted {
				s += " exhausted"
			}
			return s
		}
		fmt.Fprintf(&sb, "%s\n", e.Name)
		fmt.Fprintf(&sb, "  known bits     %s %v\n", outcome(o.Known.Outcome), o.Known.Bits)
		fmt.Fprintf(&sb, "  sign bits      %s %d\n", outcome(o.Sign.Outcome), o.Sign.NumSignBits)
		for _, b := range []struct {
			name string
			r    oracle.BoolResult
		}{{"non-zero", o.NonZero}, {"negative", o.Negative}, {"non-negative", o.NonNeg}, {"power of two", o.Pow2}} {
			fmt.Fprintf(&sb, "  %-14s %s %t\n", b.name, outcome(b.r.Outcome), b.r.Proved)
		}
		fmt.Fprintf(&sb, "  integer range  %s %v\n", outcome(o.Range.Outcome), o.Range.Range)
		fmt.Fprintf(&sb, "  demanded bits  %s", outcome(o.Demanded.Outcome))
		for _, v := range e.F.Vars {
			fmt.Fprintf(&sb, " %%%s=%s", v.Name, o.Demanded.Demanded[v.Name].BitString())
		}
		s := o.Solver
		fmt.Fprintf(&sb, "\n  engine         queries %d pruned %d enum %d exhausted %d conflicts %d decisions %d propagations %d restarts %d learned %d gates %d deduped %d clauses %d\n",
			s.Queries, s.Pruned, s.EnumQueries, s.Exhausted, s.Conflicts, s.Decisions, s.Propagations, s.Restarts, s.Learned,
			s.GatesBuilt, s.GatesDeduped, s.Clauses)
	}
	got := sb.String()
	path := filepath.Join("testdata", "search.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	name := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !strings.HasPrefix(w, " ") {
			name = w
		}
		if g != w {
			t.Fatalf("search differs from %s at line %d (%s):\ngot:  %s\nwant: %s\n(regenerate with -update-golden)", path, i+1, name, g, w)
		}
	}
}
