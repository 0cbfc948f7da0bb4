package oracle

import (
	"runtime"
	"slices"
	"strings"
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

// counted counts the certificates its engine gives, and the
// OutputOutside queries asked after the first one, which only the size
// search asks.
type counted struct {
	solver.Engine
	asked, refuted, searched int
}

func (c *counted) RefuteWindow(size apint.Int) bool {
	c.asked++
	r := c.Engine.RefuteWindow(size)
	if r {
		c.refuted++
	}
	return r
}

func (c *counted) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	if c.asked > 0 {
		c.searched++
	}
	return c.Engine.OutputOutside(lo, size)
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

// certificateDecides names, per corpus of TestCertificateKeepsRanges, the
// searches the certificate decides although the size search alone
// exhausts them: a refutation at a size up to B decides the hull, which
// the size search may reach only with a CEGIS run out of budget. None
// does in these corpora; a change that makes one must list it here.
var certificateDecides = map[string][]string{}

// TestCertificateKeepsRanges: on every expression of the three corpora,
// IntegerRangeSeeded gives the same Range with the engine's certificate
// as with the size search alone, and the same Exhausted, except for the
// expressions certificateDecides names, which the size search exhausts
// and the certificate decides; it logs each such expression. The
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
	decided := map[string][]string{} // exhausted without the certificate, decided with it
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var c *counted
				got := rangeAfterKnownBits(j.e.F, func(e solver.Engine) solver.Engine { c = &counted{Engine: e}; return c })
				want := rangeAfterKnownBits(j.e.F, func(e solver.Engine) solver.Engine { return noCertificate{e} })
				moved := want.Exhausted && !got.Exhausted
				if !got.Range.Eq(want.Range) || got.Exhausted && !want.Exhausted ||
					moved && !slices.Contains(certificateDecides[j.corpus], j.e.Name) {
					t.Errorf("%s %s: with the certificate %v (exhausted %v), without %v (exhausted %v)\n%s",
						j.corpus, j.e.Name, got.Range, got.Exhausted, want.Range, want.Exhausted, j.e.F)
				}
				mu.Lock()
				asked[j.corpus] += c.asked
				refuted[j.corpus] += c.refuted
				if moved {
					decided[j.corpus] = append(decided[j.corpus], j.e.Name)
				}
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
		slices.Sort(decided[name])
		t.Logf("%s: %d searches reached the certificate, %d refuted; %d exhausted without it are decided: %v",
			name, asked[name], refuted[name], len(decided[name]), decided[name])
		if refuted[name] == 0 {
			t.Errorf("%s: no search refuted", name)
		}
	}
}

// TestNearFullGate pins which i8 searches of the table1 corpus the
// near-full gate settles. Every one whose range is the full set, except
// gen-000107, whose rare outputs the sampler does not reach, is settled
// by one refuting certificate, decided, with no OutputOutside query after
// the hull bounds: 18 on a SAT engine, and gen-000065 and gen-000115 on
// EnumEngine. gen-000021 and gen-000070 have minimal windows below their
// hulls, and gen-000107 is not refuted: their size searches run and keep
// their windows, gen-000021's tie included. gen-000048, -086 and -092
// keep [0,255).
func TestNearFullGate(t *testing.T) {
	searched := map[string]string{"gen-000021": "[24,17)", "gen-000070": "[96,47)", "gen-000107": "full set"}
	kept := map[string]string{"gen-000048": "[0,255)", "gen-000086": "[0,255)", "gen-000092": "[0,255)"}
	var full []string
	for _, e := range certificateCorpora(true)["table1"] {
		if e.F.Width() != 8 || !strings.HasPrefix(e.Name, "gen-") {
			continue
		}
		var c *counted
		got := rangeAfterKnownBits(e.F, func(en solver.Engine) solver.Engine { c = &counted{Engine: en}; return c })
		if got.Range.IsFull() && e.Name != "gen-000107" {
			full = append(full, e.Name)
			if got.Exhausted || c.asked != 1 || c.refuted != 1 || c.searched != 0 {
				t.Errorf("%s: full set, exhausted %v, %d certificates, %d refuted, %d OutputOutside after; want decided by one refuting certificate and no search",
					e.Name, got.Exhausted, c.asked, c.refuted, c.searched)
			}
		}
		if want, ok := searched[e.Name]; ok {
			if got.Range.String() != want || got.Exhausted || c.asked != 1 || c.refuted != 0 || c.searched == 0 {
				t.Errorf("%s: %v (exhausted %v), %d certificates, %d refuted, %d OutputOutside after; want %s, decided by the size search",
					e.Name, got.Range, got.Exhausted, c.asked, c.refuted, c.searched, want)
			}
		}
		if want, ok := kept[e.Name]; ok && (got.Range.String() != want || got.Exhausted) {
			t.Errorf("%s: %v (exhausted %v), want %s, decided", e.Name, got.Range, got.Exhausted, want)
		}
	}
	if !slices.Equal(full, gateSettled) {
		t.Errorf("i8 full-set searches settled by the certificate:\n%v\nwant\n%v", full, gateSettled)
	}
}

// gateSettled are the table1 corpus's i8 full-set searches that one
// refuting certificate settles (TestNearFullGate).
var gateSettled = []string{
	"gen-000004", "gen-000006", "gen-000007", "gen-000018", "gen-000034", "gen-000035",
	"gen-000050", "gen-000052", "gen-000058", "gen-000059", "gen-000065", "gen-000069",
	"gen-000080", "gen-000090", "gen-000100", "gen-000104", "gen-000115", "gen-000117",
	"gen-000118", "gen-000119",
}

// TestMaxTriedSizeIsTheBail: synthesizeBase bailed, before the closed
// form, when needed = ⌊max/(2^w−C)⌋ + 1 exceeded MaxRangeTries/3, and
// maxTriedSize(w) is the largest size it does not bail on: every size
// up to width 16, and sizes around the bound at every width. At w = 64
// the old sum overflowed for C = 2^64−1 and ran 16 tries; the closed
// form bails there too. The near-full gate's G, refutableSize(w,
// nearFullTries), is the same closed form for needed > 16.
func TestMaxTriedSizeIsTheBail(t *testing.T) {
	for _, n := range []uint64{MaxRangeTries / 3, nearFullTries} {
		testRefutableSize(t, n)
	}
}

func testRefutableSize(t *testing.T, tries uint64) {
	bails := func(w uint, c uint64) bool {
		m := apint.AllOnes(w).Uint64()
		return m/(m-c+1) >= tries // needed > tries with needed = m/(2^w−C) + 1
	}
	for w := uint(1); w <= 64; w++ {
		m := apint.AllOnes(w).Uint64()
		b := refutableSize(w, tries)
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
				t.Fatalf("w=%d C=%d: above refutableSize(w, %d) %v, needs more tries %v", w, c, tries, got, want)
			}
		}
		if tries == MaxRangeTries/3 && b != maxTriedSize(w) {
			t.Errorf("w=%d: maxTriedSize %d, refutableSize %d", w, maxTriedSize(w), b)
		}
		if tries == MaxRangeTries/3 && w <= 8 && b != m {
			t.Errorf("w=%d: maxTriedSize %d, want max %d: no size bails", w, b, m)
		}
	}
}
