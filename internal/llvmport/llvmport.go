// Package llvmport is the compiler under test: a Go port of the LLVM-8-era
// static analyses that the paper compares against its solver-based oracle —
// computeKnownBits, ComputeNumSignBits, the single-bit predicates of
// ValueTracking (isKnownNonZero, isKnownNegative, isKnownNonNegative,
// isKnownToBeAPowerOfTwo), a Lazy-Value-Info-style integer range analysis,
// and the DemandedBits backward analysis.
//
// The ports intentionally mirror the precision profile the paper documents
// for LLVM 8 (§4.2–4.5): where LLVM 8 returned an imprecise fact (e.g. all
// bits unknown for "shl 32, %x", or the [-8,8) range for "srem %x, 8"), so
// does this package. They also carry the three historical soundness bugs of
// §4.7 behind BugConfig flags, re-introduced exactly as the reverse-applied
// patches would.
//
// Like LLVM's ValueTracking, the forward analyses read a variable's range
// metadata (Souper's (range=[lo,hi)) attribute) but perform no relational
// or path-sensitive reasoning.
package llvmport

import (
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
)

// BugConfig re-introduces previously-fixed LLVM soundness bugs (§4.7).
type BugConfig struct {
	// NonZeroAdd reproduces the bug introduced in r124183 and fixed in
	// r124184/r124188: isKnownNonZero claims the sum of two known
	// non-negative values is non-zero, forgetting that both may be zero.
	NonZeroAdd bool

	// SRemSignBits reproduces the bug behind PR23011, fixed in r233225:
	// ComputeNumSignBits for "srem X, C" over-counts by using the floor
	// instead of the ceiling of log2|C|, claiming 31 sign bits for
	// "srem i32 X, 3" where only 30 are sound.
	SRemSignBits bool

	// SRemKnownBits reproduces the bug behind PR12541, fixed in r155818:
	// computeKnownBits for srem copies the dividend's trailing zero bits
	// to the result, which is wrong for divisors that do not share them
	// (srem 4, 3 = 1 has bit zero set).
	SRemKnownBits bool
}

// Analyzer runs the ported analyses. The zero value is the fixed LLVM-8-
// era compiler; set Bugs fields to re-break it, or Modern to apply the
// post-LLVM-8 precision improvements that solver-based testing motivated
// (§4.8's trajectory): known bits through variable shift amounts, select
// condition correlation in the range analysis, the x & -x power-of-two
// idiom combined with non-zero facts, srem trailing-zero propagation, and
// the rotate and funnel-shift amount rule of DemandedBits.
type Analyzer struct {
	Bugs   BugConfig
	Modern bool
}

// Facts caches per-instruction analysis results for one function.
type Facts struct {
	an       *Analyzer
	f        *ir.Function
	known    map[*ir.Inst]knownbits.Bits
	ranges   map[*ir.Inst]constrange.Range
	signBits map[*ir.Inst]uint
	// overrides holds injected per-variable facts (AnalyzeWithInputs);
	// nil for ordinary analysis.
	overrides map[*ir.Inst]AbsInput
}

// Analyze computes all forward facts for f.
func (an *Analyzer) Analyze(f *ir.Function) *Facts {
	return an.AnalyzeWithInputs(f, nil)
}

// KnownBits returns the known-bits fact for the root value.
func (fa *Facts) KnownBits() knownbits.Bits { return fa.known[fa.f.Root] }

// KnownBitsOf returns the known-bits fact for any instruction.
func (fa *Facts) KnownBitsOf(n *ir.Inst) knownbits.Bits { return fa.known[n] }

// Range returns the LVI-style constant range for the root value.
func (fa *Facts) Range() constrange.Range { return fa.ranges[fa.f.Root] }

// RangeOf returns the range fact for any instruction.
func (fa *Facts) RangeOf(n *ir.Inst) constrange.Range { return fa.ranges[n] }

// NumSignBits returns the sign-bit count for the root value.
func (fa *Facts) NumSignBits() uint { return fa.signBits[fa.f.Root] }

// NumSignBitsOf returns the sign-bit count for any instruction.
func (fa *Facts) NumSignBitsOf(n *ir.Inst) uint { return fa.signBits[n] }
