package sat

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// The input format of FuzzKernelMatchesReference: a header byte giving
// the variable count n (1 to 256), one giving the learnt limit, then
// operations, each an opcode byte (taken modulo the opcode count)
// followed by its operands. A literal is two bytes, little-endian, in
// Lit's encoding with its variable taken modulo n.
const (
	opClause = iota // length byte k, then k literals: AddClause
	opSolve         // count byte a, a literals as assumptions, a budget byte
	opVarInc        // force the next variable bumps to rescale
	opClaInc        // force the next clause bumps to rescale
	opTie           // pileUpTie: a reduction that cuts through tied activities
	numOps
)

// fuzzBudget is a solve's conflict budget from its budget byte: below
// 200 a cut-off after 1 to 200 more conflicts, which the next solve
// resumes, and otherwise 1,000 more, which settles the small instances
// a fuzz input builds and bounds the hard ones.
func fuzzBudget(conflicts int64, b byte) int64 {
	if b < 200 {
		return conflicts + int64(b) + 1
	}
	return conflicts + 1000
}

// fuzzMaxConflicts bounds one input's work: no operation starts once
// the solvers have spent it.
const fuzzMaxConflicts = 5000

// kernelInput writes inputs in that format.
type kernelInput struct{ b []byte }

func (w *kernelInput) lits(ls []Lit) {
	for _, l := range ls {
		w.b = binary.LittleEndian.AppendUint16(w.b, uint16(l))
	}
}

func (w *kernelInput) clause(ls ...Lit) {
	w.b = append(w.b, opClause, byte(len(ls)))
	w.lits(ls)
}

func (w *kernelInput) solve(budget byte, asm ...Lit) {
	w.b = append(w.b, opSolve, byte(len(asm)))
	w.lits(asm)
	w.b = append(w.b, budget)
}

// kernelSeed encodes an instance of a TestArenaMatchesReference family
// and a call sequence like that test's: assumption solves, some cut off
// and resumed, clauses added between them, forced rescaling and ties.
func kernelSeed(rng *rand.Rand, build func(r *cnfRecorder)) []byte {
	inst := &cnfRecorder{}
	build(inst)
	if inst.vars > 256 {
		panic("seed instance too large for the fuzz format")
	}
	w := &kernelInput{b: []byte{byte(inst.vars - 1), byte(4 + rng.Intn(12))}}
	for _, c := range inst.clauses {
		w.clause(c...)
	}
	for call := 0; call < 8; call++ {
		if call%4 == 0 {
			w.b = append(w.b, opTie)
		}
		var asm []Lit
		for k := rng.Intn(4); k > 0; k-- {
			asm = append(asm, randLit(rng, inst.vars))
		}
		switch rng.Intn(6) {
		case 0:
			w.b = append(w.b, opClaInc)
		case 1:
			w.b = append(w.b, opVarInc)
		}
		if rng.Intn(3) == 0 {
			w.solve(byte(4+rng.Intn(40)), asm...) // cut off, then resumed
		}
		w.solve(255, asm...)
		if rng.Intn(4) == 0 {
			w.clause(randLit(rng, inst.vars), randLit(rng, inst.vars), randLit(rng, inst.vars))
		}
	}
	return w.b
}

// FuzzKernelMatchesReference drives the solver and the reference kernel
// (reference_test.go) through the same calls decoded from the fuzz
// bytes: clauses, assumption solves cut off by small conflict budgets
// and resumed, clauses added between solves, forced activity rescaling
// and tied learnt activities. Every solve must give the same status,
// model and Stats() on both. The seeds are instances of the four
// TestArenaMatchesReference families.
func FuzzKernelMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(2020))
	for _, build := range []func(r *cnfRecorder){
		func(r *cnfRecorder) { addRandom3SAT(r, rng, 50, 50*426/100) },
		func(r *cnfRecorder) { addPigeonhole(r, 7, 6) },
		func(r *cnfRecorder) { addTwoParityChains(r, rng, 14, true, false) },
		func(r *cnfRecorder) { addRandomCircuit(r, rng, 14, 80) },
	} {
		f.Add(kernelSeed(rng, build))
	}
	f.Fuzz(runKernelInput)
}

// runKernelInput decodes one input in the format above and runs it on a
// solverPair.
func runKernelInput(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n, maxLearn := int(data[0])+1, 2+int(data[1])%30
	p := newSolverPair(t, "fuzz", &cnfRecorder{vars: n}, maxLearn)
	rest := data[2:]
	next := func() (byte, bool) {
		if len(rest) == 0 {
			return 0, false
		}
		b := rest[0]
		rest = rest[1:]
		return b, true
	}
	readLits := func(k int) ([]Lit, bool) {
		ls := make([]Lit, 0, k)
		for ; k > 0; k-- {
			if len(rest) < 2 {
				return nil, false
			}
			l := Lit(binary.LittleEndian.Uint16(rest))
			rest = rest[2:]
			ls = append(ls, Lit(int(l.Var())%n)<<1|l&1)
		}
		return ls, true
	}
	for p.arena.Conflicts < fuzzMaxConflicts {
		op, ok := next()
		if !ok {
			return
		}
		switch op % numOps {
		case opClause:
			k, ok := next()
			ls, ok2 := readLits(int(k))
			if !ok || !ok2 {
				return
			}
			p.addClause(ls...)
		case opSolve:
			k, ok := next()
			asm, ok2 := readLits(int(k) % 8)
			b, ok3 := next()
			if !ok || !ok2 || !ok3 {
				return
			}
			p.solve(fuzzBudget(p.arena.Conflicts, b), asm...)
		case opVarInc:
			p.arena.varInc, p.ref.varInc = 1e99, 1e99
		case opClaInc:
			p.arena.claInc, p.ref.claInc = 1e250, 1e250
		case opTie:
			p.pileUpTie(maxLearn)
		}
	}
}
