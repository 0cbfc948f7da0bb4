package bitblast

import "dfcheck/internal/sat"

// This file implements AIG-style structural hashing ("strashing") for the
// circuit builder. Every gate request is canonicalized — commutative
// operands sorted, negations pulled out of ⊕ and mux through their
// algebraic identities — and hash-consed, so structurally identical
// subcircuits (rampant in adder, shifter, and divider trees, and across
// the oracle's per-bit query families) produce one Tseitin gate instead of
// N. A small set of local rewrite rules (idempotence, contradiction,
// absorption) runs before the hash lookup; double negation is free in the
// literal encoding. The Tseitin encodings are full equivalences
// (g ↔ gate(a,b)), so a consed gate is sound in both polarities.
//
// Strashing is on by default and can be disabled per circuit
// (DisableStrash), which reproduces the historical one-gate-per-request
// construction exactly: the reference circuits of the solver's
// SATEngine.NoStrash, which only tests and ablation benchmarks use.

// CircuitStats counts how much CNF a circuit emitted and how much work the
// structural hash avoided.
type CircuitStats struct {
	// Gates counts Tseitin gates actually encoded into the solver.
	Gates int64
	// Deduped counts gate requests answered by an existing gate.
	Deduped int64
	// Rewrites counts gate requests eliminated by a local rewrite rule
	// (beyond the constant folding the unstrashed builder also performs).
	Rewrites int64
	// Clauses is the solver's problem-clause count (set by Stats; it
	// covers every clause on the shared solver, not just this circuit's).
	Clauses int64
}

// Add accumulates o into s.
func (s *CircuitStats) Add(o CircuitStats) {
	s.Gates += o.Gates
	s.Deduped += o.Deduped
	s.Rewrites += o.Rewrites
	s.Clauses += o.Clauses
}

type gateOp uint8

const (
	gateAnd gateOp = iota
	gateXor
	gateMux
)

// gateKey is a canonicalized gate request. For gateAnd, a and b are the
// sorted operands; for gateXor, the sorted positive forms; for gateMux,
// (selector, then, else) with the selector and then-arm positive.
type gateKey struct {
	op      gateOp
	a, b, c sat.Lit
}

// strash is the per-circuit structural-hash state.
type strash struct {
	gates map[gateKey]sat.Lit
	// andDef records each And gate's canonical operands by its (positive)
	// output literal — the one-level lookback the absorption and
	// subsumption rewrites need.
	andDef map[sat.Lit][2]sat.Lit
}

func newStrash() *strash {
	return &strash{
		gates:  make(map[gateKey]sat.Lit),
		andDef: make(map[sat.Lit][2]sat.Lit),
	}
}

// DisableStrash turns structural hashing off for every gate built from now
// on, restoring the historical one-gate-per-request construction. Gates
// already hash-consed remain valid.
func (c *Circuit) DisableStrash() { c.sh = nil }

// Stats returns the circuit's construction counters, with Clauses read
// from the underlying solver.
func (c *Circuit) Stats() CircuitStats {
	st := c.stats
	st.Clauses = c.S.NumClauses()
	return st
}

// rewriteAnd applies the one-level-lookback And rules in both operand
// roles: idempotence/subsumption through structure (x ∧ (x∧y) → x∧y),
// contradiction (x ∧ (¬x∧y) → 0), and absorption (x ∧ (x∨y) → x).
func (c *Circuit) rewriteAnd(a, b sat.Lit) (sat.Lit, bool) {
	if r, ok := c.rewriteAndOne(a, b); ok {
		return r, true
	}
	return c.rewriteAndOne(b, a)
}

// rewriteAndOne checks the rules with g as the (possible) gate literal and
// x as the other operand.
func (c *Circuit) rewriteAndOne(x, g sat.Lit) (sat.Lit, bool) {
	d, ok := c.sh.andDef[g&^1]
	if !ok {
		return 0, false
	}
	if !g.IsNeg() {
		// g = d0 ∧ d1.
		if d[0] == x || d[1] == x {
			return g, true // x ∧ (x∧y) = x∧y
		}
		if d[0] == x.Not() || d[1] == x.Not() {
			return c.False(), true // x ∧ (¬x∧y) = 0
		}
	} else if d[0] == x.Not() || d[1] == x.Not() {
		// g = ¬(d0∧d1) = ¬d0 ∨ ¬d1, with ¬d_i = x.
		return x, true // x ∧ (x ∨ z) = x
	}
	return 0, false
}
