package oracle

import (
	"runtime"
	"sync"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/solver"
)

// noCertificate hides its engine's certificate, so that
// IntegerRangeSeeded runs the size search on every gated expression: the
// reference the certificate must agree with.
type noCertificate struct{ solver.Engine }

func (noCertificate) RefuteWindow(apint.Int) bool { return false }

// counted counts the certificates its engine gives.
type counted struct {
	solver.Engine
	asked, refuted int
}

func (c *counted) RefuteWindow(size apint.Int) bool {
	c.asked++
	r := c.Engine.RefuteWindow(size)
	if r {
		c.refuted++
	}
	return r
}

// certificateCorpora are the inputs of TestCertificateKeepsRanges: the
// benchmark's table1 corpus (precision-table's defaults at seed 2020),
// 400 generated expressions at widths 9 to 16, where the gate opens, and
// 60 at i32, which reach the certificate with roots wider than 16 bits.
func certificateCorpora(short bool) map[string][]harvest.Expr {
	table1 := harvest.Generate(harvest.Config{
		Seed: 2020, NumExprs: 120, MaxInsts: 8, MaxCastWidth: 16,
		Widths: []harvest.WidthWeight{{Width: 4, Weight: 10}, {Width: 8, Weight: 45}, {Width: 13, Weight: 15}, {Width: 16, Weight: 30}},
	})
	for _, fr := range harvest.PaperFragments {
		table1 = append(table1, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF(), Freq: 1})
	}
	var mid []harvest.WidthWeight
	for w := uint(9); w <= 16; w++ {
		mid = append(mid, harvest.WidthWeight{Width: w, Weight: 1})
	}
	n := 400
	if short {
		n = 40
	}
	return map[string][]harvest.Expr{
		"table1": table1,
		"w9-16":  harvest.Generate(harvest.Config{Seed: 77, NumExprs: n, MaxInsts: 4, Widths: mid, MaxCastWidth: 16}),
		"i32": harvest.Generate(harvest.Config{Seed: 77, NumExprs: 60, MaxInsts: 4, MaxCastWidth: 32,
			Widths: []harvest.WidthWeight{{Width: 32, Weight: 1}, {Width: 8, Weight: 1}}}),
	}
}

// rangeAfterKnownBits runs an expression's integer-range search the way
// the comparator does, on an engine from NewEngine whose known-bits
// queries ran first and enriched the seed; wrap decides how the search
// sees the engine.
func rangeAfterKnownBits(f *ir.Function, wrap func(solver.Engine) solver.Engine) RangeResult {
	e := solver.NewEngine(f, solver.Config{})
	sd := ComputeSeed(f)
	if kb := KnownBitsSeeded(e, f, sd); kb.Feasible {
		sd.EnrichFromKnown(kb.Bits, !kb.Exhausted)
	}
	return IntegerRangeSeeded(wrap(e), f, sd)
}

// TestCertificateKeepsRanges: on every expression of the three corpora,
// IntegerRangeSeeded gives the same Range and Exhausted with the
// engine's certificate as with the size search alone, and the
// certificate refutes some searches of each corpus. Under -short the
// generated corpus shrinks to 40 expressions.
func TestCertificateKeepsRanges(t *testing.T) {
	type job struct {
		corpus string
		e      harvest.Expr
	}
	jobs := make(chan job)
	var mu sync.Mutex
	asked, refuted := map[string]int{}, map[string]int{}
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var c *counted
				got := rangeAfterKnownBits(j.e.F, func(e solver.Engine) solver.Engine { c = &counted{Engine: e}; return c })
				want := rangeAfterKnownBits(j.e.F, func(e solver.Engine) solver.Engine { return noCertificate{e} })
				if !got.Range.Eq(want.Range) || got.Exhausted != want.Exhausted {
					t.Errorf("%s %s: with the certificate %v (exhausted %v), without %v (exhausted %v)\n%s",
						j.corpus, j.e.Name, got.Range, got.Exhausted, want.Range, want.Exhausted, j.e.F)
				}
				mu.Lock()
				asked[j.corpus] += c.asked
				refuted[j.corpus] += c.refuted
				mu.Unlock()
			}
		}()
	}
	for name, corpus := range certificateCorpora(testing.Short()) {
		for _, e := range corpus {
			jobs <- job{name, e}
		}
	}
	close(jobs)
	wg.Wait()
	for _, name := range []string{"table1", "w9-16", "i32"} {
		t.Logf("%s: %d searches reached the certificate, %d refuted", name, asked[name], refuted[name])
		if refuted[name] == 0 {
			t.Errorf("%s: no search refuted", name)
		}
	}
}

// TestMaxTriedSizeIsTheBail: synthesizeBase bailed, before the closed
// form, when needed = ⌊max/(2^w−C)⌋ + 1 exceeded MaxRangeTries/3, and
// maxTriedSize(w) is the largest size it does not bail on: every size
// up to width 16, and sizes around the bound at every width. At w = 64
// the old sum overflowed for C = 2^64−1 and ran 16 tries; the closed
// form bails there too.
func TestMaxTriedSizeIsTheBail(t *testing.T) {
	bails := func(w uint, c uint64) bool {
		m := apint.AllOnes(w).Uint64()
		return m/(m-c+1) >= MaxRangeTries/3 // needed > 333 with needed = m/(2^w−C) + 1
	}
	for w := uint(1); w <= 64; w++ {
		m := apint.AllOnes(w).Uint64()
		b := maxTriedSize(w)
		sizes := []uint64{1, b, m}
		if b > 1 {
			sizes = append(sizes, b-1)
		}
		if b < m {
			sizes = append(sizes, b+1)
		}
		if w <= 16 {
			sizes = sizes[:0]
			for c := uint64(1); c <= m; c++ {
				sizes = append(sizes, c)
			}
		}
		for _, c := range sizes {
			if got, want := c > b, bails(w, c); got != want {
				t.Fatalf("w=%d C=%d: above maxTriedSize %v, bails %v", w, c, got, want)
			}
		}
		if w <= 8 && b != m {
			t.Errorf("w=%d: maxTriedSize %d, want max %d: no size bails", w, b, m)
		}
	}
}
