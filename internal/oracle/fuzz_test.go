package oracle

import (
	"slices"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/solver"
)

// fuzzMaxInsts keeps each FuzzIntegerRange run to a few size searches of
// milliseconds.
const fuzzMaxInsts = 32

// minCover is the size of the smallest wrapped window holding every value
// of s, which must be ascending, distinct and not empty: the window from
// base s[i] must reach s[i]'s circular predecessor, so it is tried at
// every member.
func minCover(w uint, s []uint64) uint64 {
	mask := apint.AllOnes(w).Uint64()
	best := ^uint64(0)
	p := s[len(s)-1]
	for _, v := range s {
		best = min(best, (p-v)&mask+1)
		p = v
	}
	return best
}

// FuzzIntegerRange checks Algorithm 3 on arbitrary IR text with at most
// DemandedSweepBits summed input bits, so that both EnumEngine and a SAT
// engine's exhaustive certificate are reached, against scalar
// enumeration of the image with eval.Eval. Every result must hold every
// output the interpreter reaches; a decided one must be exactly as large
// as the smallest window that does; and the result with the engine's
// certificate must have the Range of the size search alone, and be
// exhausted only where the size search is. Seeded with the paper
// fragments and the table1 corpus's i8 full-set sources; crashers go
// under testdata/fuzz/ as regression inputs.
func FuzzIntegerRange(f *testing.F) {
	for _, fr := range harvest.PaperFragments {
		f.Add(fr.Source)
		f.Add(fr.TestSource())
	}
	full := append(slices.Clone(gateSettled), "gen-000107")
	for _, e := range certificateCorpora(true)["table1"] {
		if slices.Contains(full, e.Name) {
			f.Add(e.F.String())
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil || len(fn.Insts()) > fuzzMaxInsts || eval.TotalInputBits(fn) > solver.DemandedSweepBits {
			return
		}
		w := fn.Width()
		var outs []uint64
		eval.ForEachInput(fn, func(env eval.Env) bool {
			if v, ok := eval.Eval(fn, env); ok {
				outs = append(outs, v.Uint64())
			}
			return true
		})
		slices.Sort(outs)
		outs = slices.Compact(outs)

		got := rangeAfterKnownBits(fn, func(e solver.Engine) solver.Engine { return e })
		ref := rangeAfterKnownBits(fn, func(e solver.Engine) solver.Engine { return noCertificate{e} })
		if !got.Range.Eq(ref.Range) || got.Exhausted && !ref.Exhausted {
			t.Fatalf("%s\nwith the certificate %v (exhausted %v), without %v (exhausted %v)",
				src, got.Range, got.Exhausted, ref.Range, ref.Exhausted)
		}
		for _, v := range outs {
			if !got.Range.Contains(apint.New(w, v)) {
				t.Fatalf("%s\n%v (exhausted %v) misses the output %d", src, got.Range, got.Exhausted, v)
			}
		}
		if got.Exhausted {
			return // holding every output is all an exhausted search promises
		}
		if len(outs) == 0 {
			if got.Feasible || !got.Range.IsEmpty() {
				t.Fatalf("%s\nno well-defined input, but feasible %v, range %v", src, got.Feasible, got.Range)
			}
			return
		}
		if n, huge := got.Range.Size(); huge || n != minCover(w, outs) {
			t.Fatalf("%s\n%v has size %d (overflow %v), the smallest window holding the %d outputs %d",
				src, got.Range, n, huge, len(outs), minCover(w, outs))
		}
	})
}
