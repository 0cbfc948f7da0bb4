package absint

import (
	"fmt"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/stride"
)

// Inconsistency is one contradiction between facts the analyzer computed
// about the same value. Each fact is individually an over-approximation
// of the value's concrete behaviors, so two facts with no common concrete
// member cannot both be sound: at least one transfer function has a
// soundness bug, found without a solver or an oracle (the reduced-product
// cross-check of the Klinger et al. methodology).
type Inconsistency struct {
	// Inst names the instruction the facts are about: "%name:iW" for
	// variables, "op:iW" otherwise.
	Inst string
	// Detail states the contradiction, naming the facts involved.
	Detail string
}

func (i Inconsistency) String() string {
	return fmt.Sprintf("%s: %s", i.Inst, i.Detail)
}

// CheckFacts cross-checks the four domains' facts for every instruction
// of f (and the boolean predicates for the root) against each other,
// returning the contradictions found and the number of pairwise checks
// performed. Facts that claim the instruction is dead (conflicted known
// bits, empty range) suppress the remaining checks for that instruction:
// on dead code every fact is vacuously sound. All checks are exact in
// the contradiction direction — a reported inconsistency is always a
// genuine empty intersection, never an artifact of approximation.
func CheckFacts(f *ir.Function, fa *llvmport.Facts) ([]Inconsistency, int) {
	var out []Inconsistency
	checks := 0
	report := func(n *ir.Inst, format string, args ...any) {
		out = append(out, Inconsistency{Inst: instLabel(n), Detail: fmt.Sprintf(format, args...)})
	}
	for _, n := range f.Insts() {
		if n.Op == ir.OpConst {
			continue // facts about literals are exact by construction
		}
		w := n.Width
		k := fa.KnownBitsOf(n)
		r := fa.RangeOf(n)
		s := fa.NumSignBitsOf(n)
		if s < 1 {
			s = 1
		}
		if k.HasConflict() || r.IsEmpty() {
			continue // analysis claims dead code; everything is vacuous
		}
		mask := ^uint64(0) >> (64 - w)

		// Known bits vs range: both must admit a common value.
		checks++
		if _, ok := kRangeMember(k, r, 0, mask); !ok {
			report(n, "known bits %s and range %s share no value", k, r)
		}
		// Sign bits vs known bits: the top s bits must be completable to
		// all-zero or all-one.
		checks++
		if s >= 2 && !kSignFeasible(k, s) {
			report(n, "%d sign bits contradict known bits %s", s, k)
		}
		// Sign bits vs range: the sign-extended band must intersect the
		// range (Intersect is exact for emptiness).
		checks++
		if s >= 2 && r.Intersect(signBand(w, s)).IsEmpty() {
			report(n, "%d sign bits contradict range %s", s, r)
		}
	}

	// The single-bit predicates are computed for the root only.
	root := f.Root
	k := fa.KnownBitsOf(root)
	r := fa.RangeOf(root)
	s := fa.NumSignBitsOf(root)
	if s < 1 {
		s = 1
	}
	if k.HasConflict() || r.IsEmpty() {
		return out, checks
	}
	w := root.Width
	mask := ^uint64(0) >> (64 - w)
	half := uint64(1) << (w - 1)
	neg, nn := fa.Negative(), fa.NonNegative()

	checks++
	if neg && nn {
		report(root, "negative and non-negative both proved")
	}
	if fa.NonZero() {
		checks++
		if _, ok := kRangeMember(k, r, 1, mask); !ok {
			report(root, "non-zero proved but known bits %s and range %s admit only zero", k, r)
		}
	}
	if neg {
		checks++
		if _, ok := kRangeMember(k, r, half, mask); !ok {
			report(root, "negative proved but known bits %s and range %s admit no negative value", k, r)
		}
	}
	if nn {
		checks++
		if _, ok := kRangeMember(k, r, 0, half-1); !ok {
			report(root, "non-negative proved but known bits %s and range %s admit no non-negative value", k, r)
		}
	}
	if fa.PowerOfTwo() {
		checks++
		feasible := false
		for i := uint(0); i < w; i++ {
			v := apint.New(w, uint64(1)<<i)
			if !k.Contains(v) || !r.Contains(v) || v.NumSignBits() < s {
				continue
			}
			if neg && !v.IsNegative() || nn && v.IsNegative() {
				continue
			}
			feasible = true
			break
		}
		if !feasible {
			report(root, "power of two proved but no power of two is consistent with known bits %s, range %s, %d sign bits", k, r, s)
		}
	}
	return out, checks
}

// ExtraFacts carries the per-instruction facts of the self-contained
// abstract interpreters, for the extended consistency lint. Nil maps
// mean the corresponding domain is not enabled.
type ExtraFacts struct {
	Tnum   map[*ir.Inst]knownbits.Bits
	Stride map[*ir.Inst]stride.S
}

// extraFacts interprets f under every transfer domain enabled in cfg, so
// the lint can cross-check those facts against the analyzer's.
func (cfg Config) extraFacts(f *ir.Function) ExtraFacts {
	var ex ExtraFacts
	for _, d := range cfg.inputDomains() {
		switch td := d.(type) {
		case tnumDomain:
			ex.Tnum = td.an.Analyze(f)
		case strideDomain:
			ex.Stride = td.an.Analyze(f)
		}
	}
	return ex
}

// ExtraFactsFor interprets f under whichever transfer domains appear in
// doms (others are ignored); a nil or transfer-free doms yields the
// zero ExtraFacts, under which CheckFactsDomains degrades to CheckFacts.
func ExtraFactsFor(f *ir.Function, doms []Domain) ExtraFacts {
	return Config{Domains: doms}.extraFacts(f)
}

// CheckFactsDomains is CheckFacts extended with the tnum and stride
// reduced products: per instruction it additionally cross-checks
// tnum×known-bits (exact ternary meet), tnum×range (exact segment walk
// over the tnum's known bits) and stride×range (exact arithmetic-
// progression membership per unsigned segment). As with the base lint,
// every reported contradiction is a genuine empty intersection.
func CheckFactsDomains(f *ir.Function, fa *llvmport.Facts, ex ExtraFacts) ([]Inconsistency, int) {
	out, checks := CheckFacts(f, fa)
	if ex.Tnum == nil && ex.Stride == nil {
		return out, checks
	}
	report := func(n *ir.Inst, format string, args ...any) {
		out = append(out, Inconsistency{Inst: instLabel(n), Detail: fmt.Sprintf(format, args...)})
	}
	for _, n := range f.Insts() {
		if n.Op == ir.OpConst {
			continue
		}
		w := n.Width
		k := fa.KnownBitsOf(n)
		r := fa.RangeOf(n)
		if k.HasConflict() || r.IsEmpty() {
			continue // analysis claims dead code; everything is vacuous
		}
		mask := ^uint64(0) >> (64 - w)
		if t, ok := ex.Tnum[n]; ok && !t.HasConflict() {
			checks++
			if k.Meet(t).HasConflict() {
				report(n, "tnum %s and known bits %s share no value", t, k)
			}
			checks++
			if _, found := kRangeMember(t, r, 0, mask); !found {
				report(n, "tnum %s and range %s share no value", t, r)
			}
		}
		if s, ok := ex.Stride[n]; ok && !s.Empty {
			checks++
			found := false
			for _, sg := range unsignedSegs(r) {
				if strideSegMember(s, sg[0], sg[1]) {
					found = true
					break
				}
			}
			if !found {
				report(n, "stride %s and range %s share no value", s, r)
			}
		}
	}
	return out, checks
}

// strideSegMember reports whether the congruence has a member in the
// inclusive unsigned interval [lo, hi]: the smallest member at or above
// lo is computed directly, with the window bound checked before the
// multiply so nothing overflows even at width 64.
func strideSegMember(s stride.S, lo, hi uint64) bool {
	switch {
	case s.Empty:
		return false
	case s.M == 0:
		return lo <= s.R && s.R <= hi
	case lo <= s.R:
		return s.R <= hi
	}
	d := lo - s.R
	k := d / s.M
	if d%s.M != 0 {
		k++
	}
	if k > (s.Max()-s.R)/s.M {
		return false // no member of the window is at or above lo
	}
	return s.R+k*s.M <= hi
}

func instLabel(n *ir.Inst) string {
	if n.Op == ir.OpVar {
		return fmt.Sprintf("%%%s:i%d", n.Name, n.Width)
	}
	return fmt.Sprintf("%s%s:i%d", n.Op, n.Flags, n.Width)
}

// signBand returns the set of width-w values with at least s sign bits:
// the signed interval [-2^(w-s), 2^(w-s)-1], which wraps as an unsigned
// range. s = 1 yields the full set.
func signBand(w, s uint) constrange.Range {
	lo := apint.NewSigned(w, -(int64(1) << (w - s)))
	hi := apint.New(w, uint64(1)<<(w-s))
	return constrange.NonEmpty(lo, hi)
}

// kSignFeasible reports whether some value consistent with k has at
// least s sign bits: the top s bit positions must all be completable to
// zero, or all to one.
func kSignFeasible(k knownbits.Bits, s uint) bool {
	w := k.Width()
	topMask := (^uint64(0) >> (64 - s)) << (w - s)
	zero, one := k.Zero.Uint64(), k.One.Uint64()
	return one&topMask == 0 || zero&topMask == 0
}

// kRangeMember finds a value that is simultaneously in γ(k), in r, and
// in the unsigned interval [clipLo, clipHi]. It walks r's unsigned
// segments and, per segment, computes the smallest member of γ(k) at or
// above the segment start — exact, O(w²), no enumeration.
func kRangeMember(k knownbits.Bits, r constrange.Range, clipLo, clipHi uint64) (uint64, bool) {
	for _, sg := range unsignedSegs(r) {
		lo, hi := sg[0], sg[1]
		if clipLo > lo {
			lo = clipLo
		}
		if clipHi < hi {
			hi = clipHi
		}
		if lo > hi {
			continue
		}
		if v, ok := smallestGE(k, lo); ok && v <= hi {
			return v, true
		}
	}
	return 0, false
}

// unsignedSegs decomposes r into at most two inclusive unsigned
// intervals [lo, hi].
func unsignedSegs(r constrange.Range) [][2]uint64 {
	w := r.Width()
	mask := ^uint64(0) >> (64 - w)
	switch {
	case r.IsEmpty():
		return nil
	case r.IsFull():
		return [][2]uint64{{0, mask}}
	case r.IsWrapped():
		lo, hi := r.Lower().Uint64(), r.Upper().Uint64()
		segs := [][2]uint64{{lo, mask}}
		if hi > 0 {
			segs = append(segs, [2]uint64{0, hi - 1})
		}
		return segs
	default:
		return [][2]uint64{{r.Lower().Uint64(), r.Upper().Uint64() - 1}}
	}
}

// smallestGE returns the smallest member of γ(k) that is >= a
// (unsigned), or false if none exists. Any member v > a diverges from a
// at a highest bit position i with v_i = 1 and a_i = 0; for each
// feasible divergence position the minimal completion sets the unknown
// bits below i to k's known ones, and the overall minimum over positions
// is the answer.
func smallestGE(k knownbits.Bits, a uint64) (uint64, bool) {
	w := k.Width()
	mask := ^uint64(0) >> (64 - w)
	zero, one := k.Zero.Uint64(), k.One.Uint64()
	a &= mask
	if a&zero == 0 && ^a&one&mask == 0 {
		return a, true // a itself is a member
	}
	best, found := uint64(0), false
	for i := uint(0); i < w; i++ {
		bit := uint64(1) << i
		if a&bit != 0 || zero&bit != 0 {
			continue // need a_i = 0 and bit i free to be 1
		}
		prefixMask := mask &^ (bit<<1 - 1)
		p := a & prefixMask
		if p&zero != 0 || ^p&one&prefixMask != 0 {
			continue // a's prefix above i conflicts with k
		}
		cand := p | bit | one&(bit-1)
		if !found || cand < best {
			best, found = cand, true
		}
	}
	return best, found
}
