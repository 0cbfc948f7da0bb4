// Package oracle implements the paper's contribution: solver-based
// algorithms that compute sound and maximally precise dataflow facts for
// every analysis under test (§3.3). Each algorithm is engine-agnostic: it
// can run over the SAT-backed engine (production) or the enumeration
// engine (testing), both of which quantify over well-defined inputs only.
//
//   - KnownBits is Algorithm 1: two validity queries per output bit. Its
//     maximal precision follows from the separability of the known-bits
//     lattice (§3.3.1, Figure 2).
//   - DemandedBits is Algorithm 2: one equivalence query per input bit.
//   - IntegerRange is Algorithm 3: binary search on the range size with a
//     CEGIS loop synthesizing the base (synthesizeBase), after the exact
//     hulls and, where the search would reach sizes the CEGIS loop gives
//     up on, an evaluation certificate that can settle it unsolved.
//   - SignBits tries each count from most precise downward (§3.3).
//   - The single-bit analyses are one validity query each (§3.3).
//
// Whenever the engine exhausts its budget, the algorithms degrade soundly:
// the affected bit stays unknown, the range widens, the predicate stays
// unproven — and the result is flagged Exhausted, which the comparator
// reports as Table 1's "resource exhaustion" column.
package oracle

import (
	"cmp"
	"math/bits"
	"slices"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/solver"
	"dfcheck/internal/trace"
)

// iterSpan opens a KindIter span under the engine's current trace span and
// re-roots the engine at it, so the queries the iteration issues nest
// beneath it in the trace. The returned func restores the parent span and
// ends the iteration span; on the untraced path both are free.
func iterSpan(e solver.Engine, name string) (*trace.Span, func()) {
	parent := e.TraceSpan()
	sp := parent.Child(trace.KindIter, name)
	if sp == nil {
		return nil, func() {}
	}
	e.SetTraceSpan(sp)
	return sp, func() {
		e.SetTraceSpan(parent)
		sp.End()
	}
}

// Outcome carries the quantifier context shared by all results.
type Outcome struct {
	// Feasible is false when no well-defined input exists (dead code);
	// every fact is then vacuously the bottom element.
	Feasible bool
	// Exhausted is true when at least one solver query ran out of
	// budget, in which case the result is sound but possibly imprecise.
	Exhausted bool
}

// MaxRangeTries caps the CEGIS iterations per synthesizeBase call,
// mirroring the artifact's -souper-range-max-tries flag. Proving that NO
// window of size C exists requires on the order of 2^w/(2^w-C) spread
// counterexamples, so sizes whose complement is tiny relative to the
// space are declared exhausted up front rather than ground out (the
// paper's §3.3 makes the same concession: maximal precision is contingent
// on every query completing, and Table 1 reports 42.9% resource
// exhaustion for integer ranges).
const MaxRangeTries = 1000

// KnownBitsResult is a maximally precise known-bits fact.
type KnownBitsResult struct {
	Outcome
	Bits knownbits.Bits
}

// KnownBits runs Algorithm 1.
func KnownBits(e solver.Engine, f *ir.Function) KnownBitsResult {
	return KnownBitsSeeded(e, f, Seed{})
}

// KnownBitsSeeded runs Algorithm 1, skipping both queries for every bit
// the seed already pins: a sound seed-known bit has that value on every
// well-defined input, which is exactly the condition Algorithm 1 tests.
func KnownBitsSeeded(e solver.Engine, f *ir.Function, sd Seed) KnownBitsResult {
	w := f.Width()
	res := KnownBitsResult{Bits: knownbits.Unknown(w)}
	feasible, ok := e.Feasible()
	if !ok {
		res.Exhausted = true
		res.Feasible = true // unknown: assume live, stay sound
		return res
	}
	res.Feasible = feasible
	if !feasible {
		// Dead code: bottom (every bit claimable; report known zero
		// with a conflict-free convention of all-zero).
		res.Bits = knownbits.FromConst(apint.Zero(w))
		return res
	}
	zero, one := apint.Zero(w), apint.Zero(w)
	for i := uint(0); i < w; i++ {
		if sd.Valid {
			if known, isOne := sd.Known.KnownBit(i); known {
				if isOne {
					one = one.SetBit(i)
					e.AddPruned(2) // canBeOne (true) + canBeZero (false)
				} else {
					zero = zero.SetBit(i)
					e.AddPruned(1) // canBeOne (false)
				}
				continue
			}
		}
		func() {
			sp, end := iterSpan(e, "bit")
			defer end()
			sp.SetInt("bit", int64(i))
			canBeOne, ok := e.OutputBitCanBe(i, true)
			if !ok {
				res.Exhausted = true
				return
			}
			if !canBeOne {
				zero = zero.SetBit(i)
				return
			}
			canBeZero, ok := e.OutputBitCanBe(i, false)
			if !ok {
				res.Exhausted = true
				return
			}
			if !canBeZero {
				one = one.SetBit(i)
			}
		}()
	}
	res.Bits = knownbits.Make(zero, one)
	return res
}

// SignBitsResult is a maximally precise sign-bit count.
type SignBitsResult struct {
	Outcome
	NumSignBits uint
}

// SignBits tries each candidate count from the most precise downward.
func SignBits(e solver.Engine, f *ir.Function) SignBitsResult {
	return SignBitsSeeded(e, f, Seed{})
}

// SignBitsSeeded runs the descending ladder down to the seed's sound
// floor instead of 1: counts at or below the floor hold by seeding, so
// their queries are never posed.
func SignBitsSeeded(e solver.Engine, f *ir.Function, sd Seed) SignBitsResult {
	w := f.Width()
	res := SignBitsResult{NumSignBits: 1}
	feasible, ok := e.Feasible()
	if !ok {
		res.Exhausted = true
		res.Feasible = true
		return res
	}
	res.Feasible = feasible
	if !feasible {
		res.NumSignBits = w
		return res
	}
	floor := uint(1)
	if sd.Valid && sd.SignBits > floor {
		floor = sd.SignBits
	}
	res.NumSignBits = floor
	for k := w; k > floor; k-- {
		sp, end := iterSpan(e, "ladder")
		sp.SetInt("k", int64(k))
		violated, ok := e.SignBitsViolated(k)
		end()
		if !ok {
			res.Exhausted = true
			continue // a weaker claim may still be provable
		}
		if !violated {
			res.NumSignBits = k
			return res
		}
	}
	if floor >= 2 {
		e.AddPruned(1) // the query at the floor, which would have succeeded
	}
	return res
}

// BoolResult is a maximally precise single-bit fact: Proved means the
// property holds on every well-defined input.
type BoolResult struct {
	Outcome
	Proved bool
}

// boolQuery answers a single-bit property, letting a non-unknown seed
// verdict stand in for the solver query: TriTrue/TriFalse are sound
// claims that coincide with the maximally precise answer (given the
// feasibility established first).
func boolQuery(e solver.Engine, tri Tri, refute func() (bool, bool)) BoolResult {
	var res BoolResult
	feasible, ok := e.Feasible()
	if !ok {
		res.Exhausted = true
		res.Feasible = true
		return res
	}
	res.Feasible = feasible
	if !feasible {
		res.Proved = true // vacuous
		return res
	}
	if tri != TriUnknown {
		e.AddPruned(1)
		res.Proved = tri == TriTrue
		return res
	}
	violated, ok := refute()
	if !ok {
		res.Exhausted = true
		return res
	}
	res.Proved = !violated
	return res
}

func seedTri(sd Seed, tri Tri) Tri {
	if !sd.Valid {
		return TriUnknown
	}
	return tri
}

// NonZero proves the output is never zero.
func NonZero(e solver.Engine, f *ir.Function) BoolResult {
	return NonZeroSeeded(e, f, Seed{})
}

// NonZeroSeeded is NonZero with seed pruning.
func NonZeroSeeded(e solver.Engine, f *ir.Function, sd Seed) BoolResult {
	return boolQuery(e, seedTri(sd, sd.NonZero), e.CanBeZero)
}

// Negative proves the output's sign bit is always one.
func Negative(e solver.Engine, f *ir.Function) BoolResult {
	return NegativeSeeded(e, f, Seed{})
}

// NegativeSeeded is Negative with seed pruning.
func NegativeSeeded(e solver.Engine, f *ir.Function, sd Seed) BoolResult {
	w := f.Width()
	return boolQuery(e, seedTri(sd, sd.Negative),
		func() (bool, bool) { return e.OutputBitCanBe(w-1, false) })
}

// NonNegative proves the output's sign bit is always zero.
func NonNegative(e solver.Engine, f *ir.Function) BoolResult {
	return NonNegativeSeeded(e, f, Seed{})
}

// NonNegativeSeeded is NonNegative with seed pruning.
func NonNegativeSeeded(e solver.Engine, f *ir.Function, sd Seed) BoolResult {
	w := f.Width()
	return boolQuery(e, seedTri(sd, sd.NonNegative),
		func() (bool, bool) { return e.OutputBitCanBe(w-1, true) })
}

// PowerOfTwo proves the output is always a (non-zero) power of two.
func PowerOfTwo(e solver.Engine, f *ir.Function) BoolResult {
	return PowerOfTwoSeeded(e, f, Seed{})
}

// PowerOfTwoSeeded is PowerOfTwo with seed pruning.
func PowerOfTwoSeeded(e solver.Engine, f *ir.Function, sd Seed) BoolResult {
	return boolQuery(e, seedTri(sd, sd.PowerOfTwo), e.CanBeNonPowerOfTwo)
}

// DemandedBitsResult maps each input variable to its demanded mask (a set
// bit means demanded).
type DemandedBitsResult struct {
	Outcome
	Demanded map[string]apint.Int
}

// DemandedBits runs Algorithm 2.
func DemandedBits(e solver.Engine, f *ir.Function) DemandedBitsResult {
	return DemandedBitsSeeded(e, f, Seed{})
}

// DemandedBitsSeeded runs Algorithm 2, skipping the query for every bit
// the seed proves not demanded: a sound seed claim that flipping the bit
// never changes a well-defined output is exactly the UNSAT answer the
// miter query would give.
func DemandedBitsSeeded(e solver.Engine, f *ir.Function, sd Seed) DemandedBitsResult {
	res := DemandedBitsResult{Demanded: make(map[string]apint.Int, len(f.Vars))}
	feasible, ok := e.Feasible()
	if !ok {
		res.Exhausted = true
		res.Feasible = true
		for _, v := range f.Vars {
			res.Demanded[v.Name] = apint.AllOnes(v.Width)
		}
		return res
	}
	res.Feasible = feasible
	if !feasible {
		for _, v := range f.Vars {
			res.Demanded[v.Name] = apint.Zero(v.Width) // dead: nothing demanded
		}
		return res
	}
	for _, v := range f.Vars {
		sp, end := iterSpan(e, "var")
		sp.SetStr("var", v.Name)
		mask := apint.Zero(v.Width)
		seedMask, seeded := sd.Demanded[v.Name]
		for i := uint(0); i < v.Width; i++ {
			if sd.Valid && seeded && !seedMask.Bit(i) {
				e.AddPruned(1)
				continue
			}
			matters, ok := e.BitMatters(v, i)
			if !ok {
				res.Exhausted = true
				matters = true // sound fallback
			}
			if matters {
				mask = mask.SetBit(i)
			}
		}
		res.Demanded[v.Name] = mask
		end()
	}
	return res
}

// RangeResult is a maximally precise integer range.
type RangeResult struct {
	Outcome
	Range constrange.Range
}

// IntegerRange runs Algorithm 3: binary search for the smallest size C
// such that some base X makes [X, X+C) a sound fact, with synthesizeBase
// finding X by CEGIS. To keep the CEGIS loop convergent on near-full
// ranges, the search is seeded with the exact unsigned and signed hulls
// (each bound found by its own monotone binary search); the CEGIS phase
// then only explores sizes strictly below the better hull, where
// counterexamples spread quickly.
//
// Sizes above B = maxTriedSize(w) the CEGIS loop gives up on, exhausted,
// and below a near-full hull every size under B takes hundreds of
// counterexamples to rule out. So when the search would reach a size
// above B, the engine is first asked for a certificate
// (Engine.RefuteWindow): outputs it reaches by evaluation that no window
// of size B covers. Then no size up to B has a sound window, every size
// above it bails, and the search's answer is known without running it:
// the hull, exhausted. The certificate changes no answer, only how it is
// found; a search it does not settle runs as before.
func IntegerRange(e solver.Engine, f *ir.Function) RangeResult {
	return IntegerRangeSeeded(e, f, Seed{})
}

// IntegerRangeSeeded is IntegerRange with seed pruning: a singleton seed
// range short-circuits the whole search (a sound over-approximation with
// one element is exact), and otherwise the four hull searches start from
// the seed's bounds instead of the full word.
func IntegerRangeSeeded(e solver.Engine, f *ir.Function, sd Seed) RangeResult {
	w := f.Width()
	res := RangeResult{Range: constrange.Full(w)}
	feasible, ok := e.Feasible()
	if !ok {
		res.Exhausted = true
		res.Feasible = true
		return res
	}
	res.Feasible = feasible
	if !feasible {
		res.Range = constrange.Empty(w)
		return res
	}

	if sd.Valid && sd.Range.IsSingle() {
		res.Range = sd.Range
		e.AddPruned(int64(4 * w)) // the four hull binary searches
		return res
	}
	_, endHull := iterSpan(e, "hull-bounds")
	bounds, ok := hullBounds(e, w, sd)
	endHull()
	if !ok {
		res.Exhausted = true
		return res
	}
	one := apint.One(w)
	best := constrange.NonEmpty(bounds.umin, bounds.umax.Add(one))
	if sh := constrange.NonEmpty(bounds.smin, bounds.smax.Add(one)); sh.SizeLT(best) {
		best = sh
	}

	// Algorithm 3 proper, below the hull size.
	hi := apint.AllOnes(w).Uint64()
	if n, huge := best.Size(); !huge {
		hi = n - 1
	}
	// The certificate: when the search would reach sizes synthesizeBase
	// bails on, outputs the engine reaches by evaluation that fit no
	// window of the largest size it tries give the search's answer, the
	// hull, exhausted, without running it (DESIGN §5).
	if b := maxTriedSize(w); hi > b && e.RefuteWindow(apint.New(w, b)) {
		res.Range, res.Exhausted = best, true
		return res
	}
	samples := newSampleSet(w, bounds.umin, bounds.umax, bounds.smin, bounds.smax)
	res.Range, res.Exhausted = searchSize(e, w, hi, best, samples)
	return res
}

// IntegerRangeNaive runs the paper's Algorithm 3 literally: binary search
// over the full size space with CEGIS base synthesis and no hull seeding.
// It exists as the ablation for the hull-seeding design choice: on
// near-full result ranges the naive search must prove "no window of size
// C exists" for C close to 2^w, which needs counterexamples at
// complement-arc granularity and therefore exhausts its budget, while the
// seeded version gets the same range from four cheap bound searches.
func IntegerRangeNaive(e solver.Engine, f *ir.Function) RangeResult {
	w := f.Width()
	res := RangeResult{Range: constrange.Full(w)}
	feasible, ok := e.Feasible()
	if !ok {
		res.Exhausted = true
		res.Feasible = true
		return res
	}
	res.Feasible = feasible
	if !feasible {
		res.Range = constrange.Empty(w)
		return res
	}
	res.Range, res.Exhausted = searchSize(e, w, apint.AllOnes(w).Uint64(), res.Range, newSampleSet(w))
	return res
}

// searchSize is Algorithm 3's binary search on the range size: it finds
// the smallest size C in [1, hi] for which synthesizeBase finds a base X
// making [X, X+C) a sound fact, and returns that window, or best when no
// size up to hi has one. The flag reports whether any CEGIS run ran out
// of budget.
func searchSize(e solver.Engine, w uint, hi uint64, best constrange.Range, samples *sampleSet) (constrange.Range, bool) {
	exhaustedAny := false
	lo := uint64(1)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		csp, endCegis := iterSpan(e, "cegis")
		csp.SetInt("size", int64(mid))
		base, found, exhausted := synthesizeBase(e, w, apint.New(w, mid), samples)
		endCegis()
		exhaustedAny = exhaustedAny || exhausted
		if found {
			best = constrange.NonEmpty(base, base.Add(apint.New(w, mid)))
			if mid == 1 {
				break
			}
			hi = mid - 1
		} else {
			if mid == apint.AllOnes(w).Uint64() {
				break
			}
			lo = mid + 1
		}
	}
	return best, exhaustedAny
}

type hulls struct {
	umin, umax, smin, smax apint.Int
}

// existsIn asks whether some well-defined output lies in the (possibly
// wrapped) interval [lo, hi); lo == hi denotes the full set.
func existsIn(e solver.Engine, lo, hi apint.Int) (bool, bool) {
	if lo.Eq(hi) {
		return true, true // full interval; the caller checked feasibility
	}
	// out ∈ [lo, hi) ⟺ out ∉ [hi, lo): complement of a circular arc.
	_, found, ok := e.OutputOutside(hi, lo.Sub(hi))
	return found, ok
}

// hullBounds computes the exact unsigned and signed extrema of the
// achievable outputs, each by a monotone binary search. A valid seed
// narrows each search to the seed range's bounds: the seed is a sound
// over-approximation, so the true extremum lies inside them and every
// predicate stays true at its required endpoint.
func hullBounds(e solver.Engine, w uint, sd Seed) (hulls, bool) {
	var h hulls
	maxv := apint.AllOnes(w).Uint64()
	signBit := apint.SignBitValue(w).Uint64()
	one := apint.One(w)

	uLo, uHi := uint64(0), maxv
	sLo, sHi := uint64(0), maxv
	if sd.Valid && !sd.Range.IsEmpty() && !sd.Range.IsFull() {
		uLo = sd.Range.UnsignedMin().Uint64()
		uHi = sd.Range.UnsignedMax().Uint64()
		// The offset map v ↦ v ^ signBit is an unsigned-order embedding
		// of signed order, so the seed's signed bounds map to offset
		// bounds.
		sLo = sd.Range.SignedMin().Uint64() ^ signBit
		sHi = sd.Range.SignedMax().Uint64() ^ signBit
		savedU := int64(bits.Len64(maxv)) - int64(bits.Len64(uHi-uLo))
		savedS := int64(bits.Len64(maxv)) - int64(bits.Len64(sHi-sLo))
		e.AddPruned(2*savedU + 2*savedS) // skipped binary-search steps
	}

	// Smallest unsigned: least m such that ∃ out ∈ [0, m].
	umin, ok := searchLeast(uLo, uHi, func(m uint64) (bool, bool) {
		return existsIn(e, apint.Zero(w), apint.New(w, m).Add(one))
	})
	if !ok {
		return h, false
	}
	// Largest unsigned: greatest m such that ∃ out ∈ [m, MAX].
	umax, ok := searchGreatest(uLo, uHi, func(m uint64) (bool, bool) {
		return existsIn(e, apint.New(w, m), apint.Zero(w))
	})
	if !ok {
		return h, false
	}
	// Signed bounds via the order-preserving offset map v = offset ^ sign.
	sminOff, ok := searchLeast(sLo, sHi, func(off uint64) (bool, bool) {
		s := apint.New(w, off^signBit)
		return existsIn(e, apint.MinSigned(w), s.Add(one))
	})
	if !ok {
		return h, false
	}
	smaxOff, ok := searchGreatest(sLo, sHi, func(off uint64) (bool, bool) {
		s := apint.New(w, off^signBit)
		return existsIn(e, s, apint.MinSigned(w))
	})
	if !ok {
		return h, false
	}
	h.umin = apint.New(w, umin)
	h.umax = apint.New(w, umax)
	h.smin = apint.New(w, sminOff^signBit)
	h.smax = apint.New(w, smaxOff^signBit)
	return h, true
}

// searchLeast finds the least m in [min, max] with pred(m) true; pred
// must be monotone (false then true) on the window and true at max.
func searchLeast(min, max uint64, pred func(uint64) (bool, bool)) (uint64, bool) {
	lo, hi := min, max
	for lo < hi {
		mid := lo + (hi-lo)/2
		res, ok := pred(mid)
		if !ok {
			return 0, false
		}
		if res {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// searchGreatest finds the greatest m in [min, max] with pred(m) true;
// pred must be monotone (true then false) on the window and true at min.
func searchGreatest(min, max uint64, pred func(uint64) (bool, bool)) (uint64, bool) {
	lo, hi := min, max
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		res, ok := pred(mid)
		if !ok {
			return 0, false
		}
		if res {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, true
}

// maxTriedSize is B, the largest window size synthesizeBase tries at
// width w. Proving that no window of size C exists needs about
// needed = ⌊max/(2^w−C)⌋ + 1 spread counterexamples, max = 2^w−1, and
// synthesizeBase bails, exhausted, when needed > MaxRangeTries/3, that
// is when 2^w−C ≤ ⌊max/333⌋, that is when C > max − ⌊max/333⌋. At w ≤ 8
// B is max and no size bails.
func maxTriedSize(w uint) uint64 {
	m := apint.AllOnes(w).Uint64()
	return m - m/(MaxRangeTries/3)
}

// synthesizeBase finds X such that every well-defined output lies in
// [X, X+C), by counterexample-guided search: cover the known sample
// outputs with a window of size C (the window may start at any sample),
// then ask the solver to refute; counterexamples enlarge the sample set.
func synthesizeBase(e solver.Engine, w uint, c apint.Int, samples *sampleSet) (apint.Int, bool, bool) {
	exhausted := false
	// A failure proof needs counterexamples spread at complement-arc
	// granularity; bail out (exhausted) when that cannot fit the try
	// budget.
	if c.Uint64() > maxTriedSize(w) {
		return apint.Int{}, false, true
	}
	needed := apint.AllOnes(w).Uint64()/c.Neg().Uint64() + 1 // 1 ≤ C < 2^w
	tries := int(min(needed*3+16, MaxRangeTries))
	if len(samples.s) == 0 {
		// Seed with any achievable output (the empty interval makes
		// everything "outside").
		ex, found, ok := e.OutputOutside(apint.Zero(w), apint.Zero(w))
		if !ok {
			return apint.Int{}, false, true
		}
		if !found {
			// No achievable output at all; callers handle infeasible
			// before this, so treat as failure.
			return apint.Int{}, false, exhausted
		}
		samples.add(ex)
	}
	for try := 0; try < tries; try++ {
		base, coverable := samples.cover(c)
		if !coverable {
			return apint.Int{}, false, exhausted
		}
		// Probe an interior quarter of the complement arc first: a
		// counterexample from there splits the remaining space evenly,
		// which keeps the loop convergent (an adversarial solver model
		// just past the window edge would otherwise shrink progress to
		// one value per iteration).
		compSize := c.Neg() // 2^w - C
		third := compSize.LShr(2)
		if !third.IsZero() {
			m1 := base.Add(c).Add(third)
			m2 := m1.Add(third)
			if ex, found, ok := e.OutputOutside(m2, m1.Sub(m2)); ok && found {
				samples.add(ex)
				continue
			} else if !ok {
				exhausted = true
			}
		}
		ex, found, ok := e.OutputOutside(base, c)
		if !ok {
			return apint.Int{}, false, true
		}
		if !found {
			return base, true, exhausted
		}
		samples.add(ex)
	}
	return apint.Int{}, false, true // CEGIS budget exhausted
}

// sampleSet holds the outputs one integer-range search has seen, kept
// sorted as they arrive: its distinct values in ascending order, each
// with the order in which it was first inserted.
type sampleSet struct {
	w    uint
	mask uint64
	s    []sample
}

type sample struct {
	v     uint64
	first int // how many distinct values preceded v into the set
}

func newSampleSet(w uint, vals ...apint.Int) *sampleSet {
	ss := &sampleSet{w: w, mask: apint.AllOnes(w).Uint64()}
	for _, v := range vals {
		ss.add(v)
	}
	return ss
}

// add inserts v by binary search; a value already present keeps its
// first insertion order.
func (ss *sampleSet) add(v apint.Int) {
	x := v.Uint64()
	i, found := slices.BinarySearchFunc(ss.s, x, func(s sample, x uint64) int { return cmp.Compare(s.v, x) })
	if !found {
		ss.s = slices.Insert(ss.s, i, sample{v: x, first: len(ss.s)})
	}
}

// cover finds a window [X, X+C) covering all samples, if one exists, and
// returns the earliest-inserted sample that is such a base. A minimal
// covering window can always start at a sample, so only sample values
// are candidate bases. Walking the circle of w-bit values forward from a
// sample s, the last sample reached is s's circular predecessor p among
// the sorted distinct samples, so s is a valid base iff
// (p - s) mod 2^w < C. The set must not be empty.
func (ss *sampleSet) cover(c apint.Int) (apint.Int, bool) {
	best := -1
	cv := c.Uint64()
	p := ss.s[len(ss.s)-1].v
	for i, s := range ss.s {
		if (p-s.v)&ss.mask < cv && (best < 0 || s.first < ss.s[best].first) {
			best = i
		}
		p = s.v
	}
	if best < 0 {
		return apint.Int{}, false
	}
	return apint.New(ss.w, ss.s[best].v), true
}

// All bundles every oracle fact for one function, computed with a shared
// engine budget — the facts the paper's tool infers per Souper expression.
type All struct {
	Known       KnownBitsResult
	Sign        SignBitsResult
	NonZero     BoolResult
	Negative    BoolResult
	NonNegative BoolResult
	PowerOfTwo  BoolResult
	Range       RangeResult
	Demanded    DemandedBitsResult
}

// AnalyzeAll computes every fact on ONE shared engine with the given
// total conflict budget for the whole expression (0 selects the default),
// seeded from the trusted sound analyzer. Earlier versions created eight
// independent engines, each with its own budget and its own cold
// bit-blast of the same function; sharing fixes both leaks.
func AnalyzeAll(f *ir.Function, budget int64) All {
	return AnalyzeAllWith(solver.NewSAT(f, budget), f, ComputeSeed(f))
}

// AnalyzeAllWith computes every fact on the given engine. Known bits run
// first so their exact result can enrich the seed for the analyses that
// follow; demanded bits prune with the seed's per-variable masks, which
// enrichment does not touch.
func AnalyzeAllWith(e solver.Engine, f *ir.Function, sd Seed) All {
	var a All
	a.Known = KnownBitsSeeded(e, f, sd)
	if a.Known.Feasible {
		sd.EnrichFromKnown(a.Known.Bits, !a.Known.Exhausted)
	}
	a.Sign = SignBitsSeeded(e, f, sd)
	a.NonZero = NonZeroSeeded(e, f, sd)
	a.Negative = NegativeSeeded(e, f, sd)
	a.NonNegative = NonNegativeSeeded(e, f, sd)
	a.PowerOfTwo = PowerOfTwoSeeded(e, f, sd)
	a.Range = IntegerRangeSeeded(e, f, sd)
	a.Demanded = DemandedBitsSeeded(e, f, sd)
	return a
}
