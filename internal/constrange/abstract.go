package constrange

import (
	"slices"

	"dfcheck/internal/apint"
)

// AbstractSet returns the smallest Range containing every value in vs:
// the best abstraction (α) of a concrete set in the constant-range
// domain. The minimal circular interval is found by excluding the
// largest gap between consecutive members on the unsigned circle, so
// wrapped sets come out wrapped: {15, 0, 1} at width 4 abstracts to
// [15,2), not the full range. An empty set abstracts to Empty. vs may
// come in any order and repeat values.
func AbstractSet(w uint, vs []apint.Int) Range {
	vals := make([]uint64, 0, len(vs))
	for _, v := range vs {
		if v.Width() != w {
			panic("constrange: AbstractSet width mismatch")
		}
		vals = append(vals, v.Uint64())
	}
	slices.Sort(vals)
	return AbstractSorted(w, slices.Compact(vals))
}

// AbstractSorted is AbstractSet over raw w-bit words that are already
// ascending and distinct, such as the ascending output set of
// eval.SlicedProgram.Outputs: it neither copies nor sorts them.
func AbstractSorted(w uint, uniq []uint64) Range {
	if len(uniq) == 0 {
		return Empty(w)
	}
	if len(uniq) == 1 {
		return Single(apint.New(w, uniq[0]))
	}
	mask := ^uint64(0) >> (64 - w)
	if w < 64 && uint64(len(uniq)) == mask+1 {
		return Full(w)
	}
	// The gap after uniq[i] runs to the next member on the circle; the
	// resulting range starts after the largest gap and ends at the
	// member that precedes it.
	bestGap, bestIdx := uint64(0), 0
	for i, x := range uniq {
		next := uniq[(i+1)%len(uniq)]
		gap := (next - x) & mask
		if gap > bestGap {
			bestGap, bestIdx = gap, i
		}
	}
	lo := uniq[(bestIdx+1)%len(uniq)]
	hi := (uniq[bestIdx] + 1) & mask
	return New(apint.New(w, lo), apint.New(w, hi))
}
