package oracle

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
)

// This file implements sound-fact seeding: before paying for SAT queries,
// the oracle runs the trusted sound transfer functions and uses their
// facts to answer or narrow its own searches. Because every seed claim is
// sound — it holds for ALL well-defined inputs — and the oracle computes
// the maximally precise fact, a seed-decided answer is exactly what the
// solver would have returned, so pruning never changes a result, only the
// number of queries (counted in Stats.Pruned).
//
// The seed always comes from the fixed modern analyzer
// (llvmport.Analyzer{Modern: true} with no Bugs), NEVER from the analyzer
// under test: seeding from a possibly bug-injected comparator analyzer
// would let the bug corrupt the oracle and mask its own detection (§4.7).
// The -no-seed ablation turns seeding off entirely, restoring the pure
// solver-only oracle for cross-checking.

// Tri is a three-valued seed verdict for a single-bit property.
type Tri uint8

const (
	// TriUnknown means the seed decides nothing; ask the solver.
	TriUnknown Tri = iota
	// TriTrue means the property is proved for all well-defined inputs.
	TriTrue
	// TriFalse means the property is refuted: some well-defined input
	// violates it (valid only given feasibility, which the seeded
	// algorithms establish first).
	TriFalse
)

// Seed carries sound facts used to prune oracle queries: facts about the
// output for the forward analyses, and per-variable demanded masks for
// demanded bits. The zero value (Valid == false) seeds nothing.
type Seed struct {
	// Valid gates the whole seed; false disables seeding (the -no-seed
	// ablation path).
	Valid bool

	// Known holds sound known bits: every well-defined output matches
	// them. Seed-known bits need no Algorithm 1 queries.
	Known knownbits.Bits
	// SignBits is a sound lower bound on the output's replicated sign
	// bits: the descending ladder stops here instead of at 1.
	SignBits uint
	// Range is a sound over-approximation of the achievable outputs: the
	// hull binary searches run inside it instead of the full word.
	Range constrange.Range

	NonZero     Tri
	Negative    Tri
	NonNegative Tri
	PowerOfTwo  Tri

	// Demanded maps an input variable's name to a sound demanded mask: a
	// clear bit is proved not demanded (flipping it never changes a
	// well-defined output), so Algorithm 2 need not ask about it. A
	// variable without an entry has every bit possibly demanded.
	Demanded map[string]apint.Int

	// Exact marks Known as a maximally precise oracle result rather than
	// a static over-approximation. Only then may the absence of a known
	// bit refute a property (e.g. sign bit not known one ⟹ Negative is
	// false): in a static seed an unknown bit means "don't know", in an
	// exact one it means "both values achievable".
	Exact bool
}

// ComputeSeed runs the trusted sound analyzer over f and packages its
// facts as a (non-exact) seed.
func ComputeSeed(f *ir.Function) Seed {
	an := &llvmport.Analyzer{Modern: true}
	fa := an.Analyze(f)
	sd := Seed{
		Valid:    true,
		Known:    fa.KnownBits(),
		SignBits: fa.NumSignBits(),
		Range:    fa.Range(),
		Demanded: fa.DemandedBits(),
	}
	if fa.NonZero() {
		sd.NonZero = TriTrue
	}
	if fa.Negative() {
		sd.Negative = TriTrue
	}
	if fa.NonNegative() {
		sd.NonNegative = TriTrue
	}
	if fa.PowerOfTwo() {
		sd.PowerOfTwo = TriTrue
	}
	sd.deriveFromKnown()
	return sd
}

// EnrichFromKnown folds an oracle-computed known-bits result back into the
// seed, so the analyses that run after Algorithm 1 benefit from it. exact
// must be true only when the result is maximally precise (feasible and not
// exhausted); it unlocks the refutation direction.
func (sd *Seed) EnrichFromKnown(k knownbits.Bits, exact bool) {
	if !sd.Valid {
		return
	}
	sd.Known = sd.Known.Meet(k)
	sd.Exact = sd.Exact || exact
	sd.deriveFromKnown()
}

// deriveFromKnown refreshes the derived fields from sd.Known. Proof-
// direction conclusions need only soundness; refutation-direction ones
// need Exact (see the field comment).
func (sd *Seed) deriveFromKnown() {
	k := sd.Known
	if sb := signBitsFromKnown(k); sb > sd.SignBits {
		sd.SignBits = sb
	}
	if !k.HasConflict() {
		// Known bits bound the output unsigned: fold their hull into the
		// range seed (UMin == 0 ∧ UMax == max yields the full set, a
		// no-op under intersection).
		hull := constrange.NonEmpty(k.UMin(), k.UMax().Add(apint.One(k.Width())))
		sd.Range = sd.Range.Intersect(hull)
	}
	if !k.UMin().IsZero() {
		sd.NonZero = TriTrue // some bit is known one
	}
	if k.IsNegative() {
		sd.Negative = TriTrue
	} else if sd.Exact {
		// Exact and sign bit not known one: some well-defined output is
		// non-negative.
		sd.Negative = TriFalse
	}
	if k.IsNonNegative() {
		sd.NonNegative = TriTrue
	} else if sd.Exact {
		sd.NonNegative = TriFalse
	}
	if k.One.PopCount() >= 2 {
		// Every output has at least two set bits: never a power of two.
		sd.PowerOfTwo = TriFalse
	}
}

// signBitsFromKnown is the sound sign-bit floor implied by known bits:
// L known leading ones (or zeros) pin the top L bits equal.
func signBitsFromKnown(k knownbits.Bits) uint {
	sb := k.CountMinLeadingZeros()
	if o := k.CountMinLeadingOnes(); o > sb {
		sb = o
	}
	if sb == 0 {
		sb = 1
	}
	return sb
}
