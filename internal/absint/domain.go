// Package absint gives the four dataflow domains of the paper a common
// abstract-interpretation interface — bounded lattices with explicit
// concretization (γ) membership and best abstraction (α) over concrete
// sets — and builds two solver-free checkers on top of it:
//
//   - Verify exhaustively checks every transfer function of the compiler
//     under test for soundness and maximal precision at small bit widths
//     (the tristate-numbers methodology of Vishwanathan et al.): every
//     abstract input tuple is pushed through the analyzer, and the
//     abstract output is compared against the enumerated concrete image.
//
//   - CheckFacts cross-checks the domains against each other on one
//     analyzed expression (a reduced-product consistency lint, after
//     Klinger et al.'s analyzer-vs-analyzer differential testing): two
//     sound facts about the same value must share a concrete member, so
//     any contradiction is a soundness bug found without an oracle.
//
// Neither checker issues a SAT query; the package does not import the
// solver.
package absint

import (
	"fmt"
	"strings"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/stride"
	"dfcheck/internal/tnum"
)

// Elem is one abstract element. Each Domain defines its own dynamic type
// (knownbits.Bits, constrange.Range, SignCount, bool); the interface
// boxes them so the checkers are written once.
type Elem any

// Domain is the abstract-domain interface shared by the verifier and
// the consistency lint: a bounded lattice with a concretization and a
// best abstraction over (small-width) concrete sets.
type Domain interface {
	// Name matches the harvest.Analysis naming so reports line up.
	Name() string
	// Top is the no-information element at width w.
	Top(w uint) Elem
	// Bottom is the most precise element at width w: the element with
	// empty concretization where the lattice has one, otherwise the
	// least element.
	Bottom(w uint) Elem
	// IsBottom reports whether γ(a) is empty.
	IsBottom(a Elem) bool
	// Join is the least upper bound, Meet the greatest lower bound (or
	// the domain's standard sound approximation of it, as in LLVM).
	Join(a, b Elem) Elem
	Meet(a, b Elem) Elem
	// Leq reports a ⊑ b, that is γ(a) ⊆ γ(b).
	Leq(a, b Elem) bool
	Eq(a, b Elem) bool
	// Contains reports v ∈ γ(a): concretization membership.
	Contains(a Elem, v apint.Int) bool
	// Abstract returns α(vs): the least element whose concretization
	// includes every value of vs.
	Abstract(w uint, vs []apint.Int) Elem
	// Enum enumerates every element with non-empty concretization at
	// width w, stopping early if fn returns false. Feasible only at
	// the small widths the exhaustive verifier sweeps.
	Enum(w uint, fn func(Elem) bool)
	// Format renders an element the way reports print it.
	Format(a Elem) string
}

// TransferDomain is a Domain that carries its own transfer-function
// suite instead of reading facts off the LLVM-port analyzer: Verify
// grades Transfer directly against the concrete image, with no harness
// and no analyzer in the loop. Transfer must map operand tuples with no
// well-defined execution to a bottom element and must never panic on any
// op/flag/width combination the IR admits.
type TransferDomain interface {
	Domain
	Transfer(op ir.Op, flags ir.Flags, dstW uint, args []Elem) Elem
}

// The domain instances, one per analysis of the compiler under test.
var (
	KnownBits    Domain = knownBitsDomain{}
	IntegerRange Domain = rangeDomain{}
	SignBits     Domain = signBitsDomain{}
	NonZero      Domain = predDomain{"non-zero", func(v apint.Int) bool { return !v.IsZero() }}
	Negative     Domain = predDomain{"negative", apint.Int.IsNegative}
	NonNegative  Domain = predDomain{"non-negative", apint.Int.IsNonNegative}
	PowerOfTwo   Domain = predDomain{"power of two", apint.Int.IsPowerOfTwo}

	// Tnums and Strides carry their own verified transfer suites
	// (internal/tnum, internal/stride) and are graded as TransferDomains.
	Tnums   Domain = tnumDomain{}
	Strides Domain = strideDomain{}
)

// TnumsWithBugs returns the tnum domain with the given deliberately
// re-broken transfer functions, for seeded-bug detection sweeps.
func TnumsWithBugs(bugs tnum.Bugs) Domain {
	return tnumDomain{an: tnum.Analysis{Bugs: bugs}}
}

// DomainByName resolves a command-line domain name; the accepted names
// are the Name() strings with spaces dashed, plus common short forms.
func DomainByName(name string) (Domain, bool) {
	switch name {
	case "known-bits", "knownbits", "kb":
		return KnownBits, true
	case "integer-range", "range":
		return IntegerRange, true
	case "sign-bits", "signbits":
		return SignBits, true
	case "tnum", "tnums":
		return Tnums, true
	case "stride", "strides", "congruence":
		return Strides, true
	}
	return nil, false
}

// DomainsByNames parses a comma-separated -domains flag value with
// DomainByName; the empty string yields nil, leaving the caller's
// default in force.
func DomainsByNames(csv string) ([]Domain, error) {
	if csv == "" {
		return nil, nil
	}
	var doms []Domain
	for _, name := range strings.Split(csv, ",") {
		d, ok := DomainByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown domain %q", name)
		}
		doms = append(doms, d)
	}
	return doms, nil
}

// TransferDomainsByNames parses the comparator's -domains flag value:
// every name must resolve to a transfer domain (tnum or stride), the only
// domains whose facts extend the consistency lint, and any other name is
// an error that names the accepted ones. The empty string yields nil.
func TransferDomainsByNames(csv string) ([]Domain, error) {
	if csv == "" {
		return nil, nil
	}
	var doms []Domain
	for _, name := range strings.Split(csv, ",") {
		d, _ := DomainByName(strings.TrimSpace(name))
		if _, ok := d.(TransferDomain); !ok {
			return nil, fmt.Errorf("domain %q is not a transfer domain (accepted: tnum, stride)", name)
		}
		doms = append(doms, d)
	}
	return doms, nil
}

// AllInputDomains lists every domain accepted as a Verify input domain,
// in sweep order: the three LLVM-port fact domains, then the two
// self-contained transfer suites.
func AllInputDomains() []Domain {
	return []Domain{KnownBits, SignBits, IntegerRange, Tnums, Strides}
}

// tnumDomain is the known-bits lattice graded through the tnum paper's
// transfer suite; an holds the suite (possibly with seeded bugs — the
// lattice is always clean, so only Transfer grading can go unsound).
type tnumDomain struct {
	knownBitsDomain
	an tnum.Analysis
}

func (tnumDomain) Name() string { return "tnum" }

func (d tnumDomain) Transfer(op ir.Op, flags ir.Flags, dstW uint, args []Elem) Elem {
	ks := make([]knownbits.Bits, len(args))
	for i, a := range args {
		ks[i] = a.(knownbits.Bits)
	}
	return d.an.Transfer(op, flags, dstW, ks)
}

// strideDomain adapts internal/stride to the Domain interface.
type strideDomain struct{ an stride.Analysis }

func (strideDomain) Name() string                         { return "stride" }
func (strideDomain) Top(w uint) Elem                      { return stride.Top(w) }
func (strideDomain) Bottom(w uint) Elem                   { return stride.Bottom(w) }
func (strideDomain) IsBottom(a Elem) bool                 { return a.(stride.S).Empty }
func (strideDomain) Join(a, b Elem) Elem                  { return a.(stride.S).Join(b.(stride.S)) }
func (strideDomain) Meet(a, b Elem) Elem                  { return a.(stride.S).Meet(b.(stride.S)) }
func (strideDomain) Leq(a, b Elem) bool                   { return a.(stride.S).Leq(b.(stride.S)) }
func (strideDomain) Eq(a, b Elem) bool                    { return a.(stride.S).Eq(b.(stride.S)) }
func (strideDomain) Contains(a Elem, v apint.Int) bool    { return a.(stride.S).Contains(v) }
func (strideDomain) Abstract(w uint, vs []apint.Int) Elem { return stride.Abstract(w, vs) }
func (strideDomain) Format(a Elem) string                 { return a.(stride.S).String() }
func (strideDomain) Enum(w uint, fn func(Elem) bool) {
	stride.Enum(w, func(s stride.S) bool { return fn(s) })
}

func (d strideDomain) Transfer(op ir.Op, flags ir.Flags, dstW uint, args []Elem) Elem {
	ss := make([]stride.S, len(args))
	for i, a := range args {
		ss[i] = a.(stride.S)
	}
	return d.an.Transfer(op, flags, dstW, ss)
}

// knownBitsDomain wraps the ternary known-bits lattice of knownbits.Bits.
type knownBitsDomain struct{}

func (knownBitsDomain) Name() string         { return "known bits" }
func (knownBitsDomain) Top(w uint) Elem      { return knownbits.Unknown(w) }
func (knownBitsDomain) Bottom(w uint) Elem   { return knownbits.Bottom(w) }
func (knownBitsDomain) IsBottom(a Elem) bool { return a.(knownbits.Bits).HasConflict() }
func (knownBitsDomain) Join(a, b Elem) Elem {
	return a.(knownbits.Bits).Join(b.(knownbits.Bits))
}
func (knownBitsDomain) Meet(a, b Elem) Elem {
	return a.(knownbits.Bits).Meet(b.(knownbits.Bits))
}
func (knownBitsDomain) Leq(a, b Elem) bool {
	return a.(knownbits.Bits).AtLeastAsPreciseAs(b.(knownbits.Bits))
}
func (knownBitsDomain) Eq(a, b Elem) bool { return a.(knownbits.Bits).Eq(b.(knownbits.Bits)) }
func (knownBitsDomain) Contains(a Elem, v apint.Int) bool {
	return a.(knownbits.Bits).Contains(v)
}

func (knownBitsDomain) Abstract(w uint, vs []apint.Int) Elem {
	return knownbits.Abstract(w, vs)
}

func (knownBitsDomain) Enum(w uint, fn func(Elem) bool) {
	knownbits.Enum(w, func(k knownbits.Bits) bool { return fn(k) })
}

func (knownBitsDomain) Format(a Elem) string { return a.(knownbits.Bits).String() }

// rangeDomain wraps the wrapped-interval lattice of constrange.Range.
// Join (Union) is a minimal upper bound — the wrapped-interval poset has
// no unique least one (two disjoint singletons can be covered two
// incomparable ways around the circle); Meet (Intersect) is
// LLVM's sound approximation of the greatest lower bound — exact
// whenever the intersection is circularly contiguous, and in particular
// exact for emptiness, which is all the consistency lint relies on.
type rangeDomain struct{}

func (rangeDomain) Name() string         { return "integer range" }
func (rangeDomain) Top(w uint) Elem      { return constrange.Full(w) }
func (rangeDomain) Bottom(w uint) Elem   { return constrange.Empty(w) }
func (rangeDomain) IsBottom(a Elem) bool { return a.(constrange.Range).IsEmpty() }
func (rangeDomain) Join(a, b Elem) Elem  { return a.(constrange.Range).Union(b.(constrange.Range)) }
func (rangeDomain) Meet(a, b Elem) Elem {
	return a.(constrange.Range).Intersect(b.(constrange.Range))
}
func (rangeDomain) Leq(a, b Elem) bool {
	return b.(constrange.Range).ContainsRange(a.(constrange.Range))
}
func (rangeDomain) Eq(a, b Elem) bool { return a.(constrange.Range).Eq(b.(constrange.Range)) }
func (rangeDomain) Contains(a Elem, v apint.Int) bool {
	return a.(constrange.Range).Contains(v)
}
func (rangeDomain) Abstract(w uint, vs []apint.Int) Elem { return constrange.AbstractSet(w, vs) }

func (rangeDomain) Enum(w uint, fn func(Elem) bool) {
	// Every (lo, hi) pair with lo != hi is a distinct non-empty range,
	// plus the full set; Empty (the bottom) is skipped.
	max := uint64(1) << w
	for lo := uint64(0); lo < max; lo++ {
		for hi := uint64(0); hi < max; hi++ {
			if lo == hi {
				continue
			}
			if !fn(constrange.New(apint.New(w, lo), apint.New(w, hi))) {
				return
			}
		}
	}
	fn(constrange.Full(w))
}

func (rangeDomain) Format(a Elem) string { return a.(constrange.Range).String() }

// SignCount is the sign-bits domain element: at least N of the top bits
// of a width-W value equal the sign bit (N ≥ 1 for every value; N > W
// is the synthetic bottom with empty concretization).
type SignCount struct {
	W, N uint
}

type signBitsDomain struct{}

func (signBitsDomain) Name() string         { return "sign bits" }
func (signBitsDomain) Top(w uint) Elem      { return SignCount{W: w, N: 1} }
func (signBitsDomain) Bottom(w uint) Elem   { return SignCount{W: w, N: w + 1} }
func (signBitsDomain) IsBottom(a Elem) bool { s := a.(SignCount); return s.N > s.W }
func (signBitsDomain) Join(a, b Elem) Elem {
	x, y := a.(SignCount), b.(SignCount)
	if y.N < x.N {
		x.N = y.N
	}
	return x
}
func (signBitsDomain) Meet(a, b Elem) Elem {
	x, y := a.(SignCount), b.(SignCount)
	if y.N > x.N {
		x.N = y.N
	}
	return x
}
func (signBitsDomain) Leq(a, b Elem) bool { return a.(SignCount).N >= b.(SignCount).N }
func (signBitsDomain) Eq(a, b Elem) bool  { return a.(SignCount).N == b.(SignCount).N }
func (signBitsDomain) Contains(a Elem, v apint.Int) bool {
	return v.NumSignBits() >= a.(SignCount).N
}

func (signBitsDomain) Abstract(w uint, vs []apint.Int) Elem {
	if len(vs) == 0 {
		return SignCount{W: w, N: w + 1}
	}
	min := w
	for _, v := range vs {
		if n := v.NumSignBits(); n < min {
			min = n
		}
	}
	return SignCount{W: w, N: min}
}

func (signBitsDomain) Enum(w uint, fn func(Elem) bool) {
	for n := uint(1); n <= w; n++ {
		if !fn(SignCount{W: w, N: n}) {
			return
		}
	}
}

func (signBitsDomain) Format(a Elem) string { return fmt.Sprint(a.(SignCount).N) }

// predDomain is the two-point lattice of one boolean predicate: true
// means the property is proved for every concrete value (γ = the
// satisfying values), false means nothing is claimed (γ = all values).
// The lattice has no empty element, so Bottom is the proved point.
type predDomain struct {
	name string
	pred func(v apint.Int) bool
}

func (d predDomain) Name() string         { return d.name }
func (d predDomain) Top(w uint) Elem      { return false }
func (d predDomain) Bottom(w uint) Elem   { return true }
func (d predDomain) IsBottom(a Elem) bool { return false }
func (d predDomain) Join(a, b Elem) Elem  { return a.(bool) && b.(bool) }
func (d predDomain) Meet(a, b Elem) Elem  { return a.(bool) || b.(bool) }
func (d predDomain) Leq(a, b Elem) bool   { return a.(bool) || !b.(bool) }
func (d predDomain) Eq(a, b Elem) bool    { return a.(bool) == b.(bool) }
func (d predDomain) Contains(a Elem, v apint.Int) bool {
	return !a.(bool) || d.pred(v)
}

func (d predDomain) Abstract(w uint, vs []apint.Int) Elem {
	for _, v := range vs {
		if !d.pred(v) {
			return false
		}
	}
	return true
}

func (d predDomain) Enum(w uint, fn func(Elem) bool) {
	if fn(false) {
		fn(true)
	}
}

func (d predDomain) Format(a Elem) string { return fmt.Sprint(a.(bool)) }
