// Package opt is the Table 2 substrate: a small fact-driven middle-end
// plus a cycle-model interpreter. The paper built an LLVM 8 whose forward
// bit-level analyses were replaced by the maximally precise oracle and
// measured generated-code quality on bzip2, gzip, Stockfish, and SQLite;
// here the same comparison runs between the LLVM-port facts (baseline) and
// oracle facts (precise) over synthetic integer kernels named after those
// applications, executed under per-machine cycle models.
package opt

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/knownbits"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
	"dfcheck/internal/solver"
)

// FactSource supplies per-instruction dataflow facts to the optimizer.
type FactSource interface {
	KnownBits(n *ir.Inst) knownbits.Bits
	Range(n *ir.Inst) constrange.Range
	// Demanded returns the bits of n that can influence the function's
	// result (bit-level liveness from the root).
	Demanded(n *ir.Inst) apint.Int
}

// BaselineSource answers from the LLVM-port analyses — the stock compiler.
type BaselineSource struct {
	fa       *llvmport.Facts
	demanded map[*ir.Inst]apint.Int
}

// NewBaselineSource analyzes f with the (clean) LLVM port.
func NewBaselineSource(f *ir.Function) *BaselineSource {
	var an llvmport.Analyzer
	fa := an.Analyze(f)
	return &BaselineSource{fa: fa, demanded: fa.InstDemandedBits()}
}

// KnownBits implements FactSource.
func (s *BaselineSource) KnownBits(n *ir.Inst) knownbits.Bits { return s.fa.KnownBitsOf(n) }

// Range implements FactSource.
func (s *BaselineSource) Range(n *ir.Inst) constrange.Range { return s.fa.RangeOf(n) }

// Demanded implements FactSource.
func (s *BaselineSource) Demanded(n *ir.Inst) apint.Int {
	if d, ok := s.demanded[n]; ok {
		return d
	}
	return apint.AllOnes(n.Width)
}

// OracleSource answers from the solver-based oracle, running it once per
// queried instruction (each interior value becomes the root of its own
// query). This is the "very slow" compiler of §4.6.
type OracleSource struct {
	f        *ir.Function
	budget   int64
	vars     []*ir.Inst
	kbs      map[*ir.Inst]knownbits.Bits
	rgs      map[*ir.Inst]constrange.Range
	demanded map[*ir.Inst]apint.Int
}

// NewOracleSource prepares oracle-backed facts for f's instructions. The
// per-instruction demanded masks come from the LLVM-port backward pass
// (sound; the oracle's Algorithm 2 defines demanded bits per input
// variable, not per interior value).
func NewOracleSource(f *ir.Function, budget int64) *OracleSource {
	var an llvmport.Analyzer
	return &OracleSource{
		f:        f,
		budget:   budget,
		vars:     f.Vars,
		kbs:      make(map[*ir.Inst]knownbits.Bits),
		rgs:      make(map[*ir.Inst]constrange.Range),
		demanded: an.Analyze(f).InstDemandedBits(),
	}
}

// Demanded implements FactSource.
func (s *OracleSource) Demanded(n *ir.Inst) apint.Int {
	if d, ok := s.demanded[n]; ok {
		return d
	}
	return apint.AllOnes(n.Width)
}

// subFunction wraps an interior instruction as its own inferable root,
// keeping only the variables it reaches.
func (s *OracleSource) subFunction(n *ir.Inst) *ir.Function {
	reach := make(map[*ir.Inst]bool)
	var visit func(m *ir.Inst)
	visit = func(m *ir.Inst) {
		if reach[m] {
			return
		}
		reach[m] = true
		for _, a := range m.Args {
			visit(a)
		}
	}
	visit(n)
	var vars []*ir.Inst
	for _, v := range s.vars {
		if reach[v] {
			vars = append(vars, v)
		}
	}
	return &ir.Function{Root: n, Vars: vars}
}

// KnownBits implements FactSource.
func (s *OracleSource) KnownBits(n *ir.Inst) knownbits.Bits {
	if kb, ok := s.kbs[n]; ok {
		return kb
	}
	sub := s.subFunction(n)
	res := oracle.KnownBitsSeeded(solver.NewEngine(sub, solver.Config{Budget: s.budget}), sub, oracle.ComputeSeed(sub))
	kb := res.Bits
	if !res.Feasible {
		// Dead code: any fact is sound; stay neutral for the optimizer.
		kb = knownbits.Unknown(n.Width)
	}
	s.kbs[n] = kb
	return kb
}

// Range implements FactSource. Maximally precise known bits already pin
// every value the optimizer could fold through ranges — a comparison that
// any range analysis decides is a constant i1, which the known-bits oracle
// proves directly — so the expensive range synthesis is skipped and the
// known-bits fact is converted instead.
func (s *OracleSource) Range(n *ir.Inst) constrange.Range {
	if rg, ok := s.rgs[n]; ok {
		return rg
	}
	rg := constrange.Full(n.Width)
	if kb := s.KnownBits(n); kb.IsConstant() {
		rg = constrange.Single(kb.Constant())
	}
	s.rgs[n] = rg
	return rg
}
