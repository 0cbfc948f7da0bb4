// Package bitblast compiles ir expressions to CNF over a sat.Solver,
// turning bit-vector queries into SAT queries — the QF_BV decision
// procedure that stands in for the paper's use of Z3. Words are little-
// endian literal vectors; gates are Tseitin-encoded with constant
// simplification so that constant subcircuits fold away.
package bitblast

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/sat"
)

// Word is a bit-vector of SAT literals, least significant bit first.
type Word []sat.Lit

// Width returns the word's bit width.
func (w Word) Width() uint { return uint(len(w)) }

// Circuit builds Tseitin-encoded gates over a SAT solver. Gates are
// structurally hashed by default (see strash.go); DisableStrash restores
// the plain one-gate-per-request construction.
type Circuit struct {
	S   *sat.Solver
	tru sat.Lit

	sh    *strash // nil when strashing is disabled
	stats CircuitStats
}

// NewCircuit wraps a solver, allocating the constant-true literal.
func NewCircuit(s *sat.Solver) *Circuit {
	t := sat.PosLit(s.NewVar())
	s.AddClause(t)
	return &Circuit{S: s, tru: t, sh: newStrash()}
}

// True returns the constant-true literal.
func (c *Circuit) True() sat.Lit { return c.tru }

// False returns the constant-false literal.
func (c *Circuit) False() sat.Lit { return c.tru.Not() }

// Lit allocates a fresh unconstrained literal.
func (c *Circuit) Lit() sat.Lit { return sat.PosLit(c.S.NewVar()) }

// FreshWord allocates w unconstrained bits.
func (c *Circuit) FreshWord(w uint) Word {
	out := make(Word, w)
	for i := range out {
		out[i] = c.Lit()
	}
	return out
}

// ConstWord encodes a constant.
func (c *Circuit) ConstWord(v apint.Int) Word {
	out := make(Word, v.Width())
	for i := uint(0); i < v.Width(); i++ {
		if v.Bit(i) {
			out[i] = c.tru
		} else {
			out[i] = c.tru.Not()
		}
	}
	return out
}

func (c *Circuit) isTrue(l sat.Lit) bool  { return l == c.tru }
func (c *Circuit) isFalse(l sat.Lit) bool { return l == c.tru.Not() }

// And returns a ∧ b.
func (c *Circuit) And(a, b sat.Lit) sat.Lit {
	switch {
	case c.isFalse(a) || c.isFalse(b):
		return c.False()
	case c.isTrue(a):
		return b
	case c.isTrue(b):
		return a
	case a == b:
		return a
	case a == b.Not():
		return c.False()
	}
	if c.sh == nil {
		return c.andGate(a, b)
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := c.rewriteAnd(a, b); ok {
		c.stats.Rewrites++
		return r
	}
	key := gateKey{op: gateAnd, a: a, b: b}
	if g, ok := c.sh.gates[key]; ok {
		c.stats.Deduped++
		return g
	}
	g := c.andGate(a, b)
	c.sh.gates[key] = g
	c.sh.andDef[g] = [2]sat.Lit{a, b}
	return g
}

// andGate emits the Tseitin encoding of g ↔ a ∧ b.
func (c *Circuit) andGate(a, b sat.Lit) sat.Lit {
	g := c.Lit()
	c.stats.Gates++
	c.S.AddClause(g.Not(), a)
	c.S.AddClause(g.Not(), b)
	c.S.AddClause(g, a.Not(), b.Not())
	return g
}

// Or returns a ∨ b.
func (c *Circuit) Or(a, b sat.Lit) sat.Lit {
	return c.And(a.Not(), b.Not()).Not()
}

// Xor returns a ⊕ b.
func (c *Circuit) Xor(a, b sat.Lit) sat.Lit {
	switch {
	case c.isFalse(a):
		return b
	case c.isFalse(b):
		return a
	case c.isTrue(a):
		return b.Not()
	case c.isTrue(b):
		return a.Not()
	case a == b:
		return c.False()
	case a == b.Not():
		return c.True()
	}
	if c.sh == nil {
		return c.xorGate(a, b)
	}
	// ⊕ commutes with negation: pull the polarities out and hash-cons on
	// the sorted positive pair.
	neg := a.IsNeg() != b.IsNeg()
	a, b = a&^1, b&^1
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: gateXor, a: a, b: b}
	g, ok := c.sh.gates[key]
	if ok {
		c.stats.Deduped++
	} else {
		g = c.xorGate(a, b)
		c.sh.gates[key] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// xorGate emits the Tseitin encoding of g ↔ a ⊕ b.
func (c *Circuit) xorGate(a, b sat.Lit) sat.Lit {
	g := c.Lit()
	c.stats.Gates++
	c.S.AddClause(g.Not(), a, b)
	c.S.AddClause(g.Not(), a.Not(), b.Not())
	c.S.AddClause(g, a, b.Not())
	c.S.AddClause(g, a.Not(), b)
	return g
}

// Xnor returns a ↔ b.
func (c *Circuit) Xnor(a, b sat.Lit) sat.Lit { return c.Xor(a, b).Not() }

// Mux returns s ? a : b.
func (c *Circuit) Mux(s, a, b sat.Lit) sat.Lit {
	switch {
	case c.isTrue(s):
		return a
	case c.isFalse(s):
		return b
	case a == b:
		return a
	}
	if c.sh == nil {
		return c.muxGate(s, a, b)
	}
	// Local rewrites: complementary, constant, or selector-entangled arms
	// collapse to a single two-input gate, which then hash-conses in its
	// own right (barrel shifters and restoring division hit the constant
	// cases constantly).
	switch {
	case a == b.Not():
		c.stats.Rewrites++
		return c.Xnor(s, a) // s?a:¬a = s↔a
	case c.isTrue(a):
		c.stats.Rewrites++
		return c.Or(s, b)
	case c.isFalse(a):
		c.stats.Rewrites++
		return c.And(s.Not(), b)
	case c.isTrue(b):
		c.stats.Rewrites++
		return c.Or(s.Not(), a)
	case c.isFalse(b):
		c.stats.Rewrites++
		return c.And(s, a)
	case s == a:
		c.stats.Rewrites++
		return c.Or(s, b) // s?s:b = s ∨ b
	case s == a.Not():
		c.stats.Rewrites++
		return c.And(s.Not(), b) // s?¬s:b = ¬s ∧ b
	case s == b:
		c.stats.Rewrites++
		return c.And(s, a) // s?a:s = s ∧ a
	case s == b.Not():
		c.stats.Rewrites++
		return c.Or(s.Not(), a) // s?a:¬s = ¬s ∨ a
	}
	// Canonicalize: positive selector (negating it swaps the arms), then
	// positive then-arm (negating both arms negates the output).
	if s.IsNeg() {
		s = s.Not()
		a, b = b, a
	}
	neg := false
	if a.IsNeg() {
		neg = true
		a, b = a.Not(), b.Not()
	}
	key := gateKey{op: gateMux, a: s, b: a, c: b}
	g, ok := c.sh.gates[key]
	if ok {
		c.stats.Deduped++
	} else {
		g = c.muxGate(s, a, b)
		c.sh.gates[key] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// muxGate emits the Tseitin encoding of g ↔ (s ? a : b).
func (c *Circuit) muxGate(s, a, b sat.Lit) sat.Lit {
	g := c.Lit()
	c.stats.Gates++
	c.S.AddClause(g.Not(), s.Not(), a)
	c.S.AddClause(g.Not(), s, b)
	c.S.AddClause(g, s.Not(), a.Not())
	c.S.AddClause(g, s, b.Not())
	return g
}

// AndN folds And over any number of literals (true for none).
func (c *Circuit) AndN(lits ...sat.Lit) sat.Lit {
	out := c.True()
	for _, l := range lits {
		out = c.And(out, l)
	}
	return out
}

// OrN folds Or over any number of literals (false for none).
func (c *Circuit) OrN(lits ...sat.Lit) sat.Lit {
	out := c.False()
	for _, l := range lits {
		out = c.Or(out, l)
	}
	return out
}

// fullAdder returns (sum, carry) of a+b+cin.
func (c *Circuit) fullAdder(a, b, cin sat.Lit) (sum, cout sat.Lit) {
	axb := c.Xor(a, b)
	sum = c.Xor(axb, cin)
	cout = c.Or(c.And(a, b), c.And(axb, cin))
	return sum, cout
}

// AddCarry returns a+b+cin and the carry out.
func (c *Circuit) AddCarry(a, b Word, cin sat.Lit) (Word, sat.Lit) {
	if len(a) != len(b) {
		panic("bitblast: add width mismatch")
	}
	out := make(Word, len(a))
	carry := cin
	for i := range a {
		out[i], carry = c.fullAdder(a[i], b[i], carry)
	}
	return out, carry
}

// Add returns a+b.
func (c *Circuit) Add(a, b Word) Word {
	out, _ := c.AddCarry(a, b, c.False())
	return out
}

// NotWord returns the bitwise complement.
func (c *Circuit) NotWord(a Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = a[i].Not()
	}
	return out
}

// Sub returns a-b and the carry out (carry=1 means no borrow, a >= b
// unsigned).
func (c *Circuit) Sub(a, b Word) (Word, sat.Lit) {
	return c.AddCarry(a, c.NotWord(b), c.True())
}

// Neg returns -a.
func (c *Circuit) Neg(a Word) Word {
	zero := c.ConstWord(apint.Zero(uint(len(a))))
	out, _ := c.Sub(zero, a)
	return out
}

// AndWord, OrWord, XorWord are bitwise word operations.
func (c *Circuit) AndWord(a, b Word) Word { return c.zipWord(a, b, c.And) }

// OrWord returns the bitwise disjunction.
func (c *Circuit) OrWord(a, b Word) Word { return c.zipWord(a, b, c.Or) }

// XorWord returns the bitwise exclusive-or.
func (c *Circuit) XorWord(a, b Word) Word { return c.zipWord(a, b, c.Xor) }

func (c *Circuit) zipWord(a, b Word, f func(x, y sat.Lit) sat.Lit) Word {
	if len(a) != len(b) {
		panic("bitblast: word width mismatch")
	}
	out := make(Word, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// MuxWord returns s ? a : b elementwise.
func (c *Circuit) MuxWord(s sat.Lit, a, b Word) Word {
	return c.zipWord(a, b, func(x, y sat.Lit) sat.Lit { return c.Mux(s, x, y) })
}

// Eq returns a == b.
func (c *Circuit) Eq(a, b Word) sat.Lit {
	out := c.True()
	for i := range a {
		out = c.And(out, c.Xnor(a[i], b[i]))
	}
	return out
}

// ULT returns a <u b.
func (c *Circuit) ULT(a, b Word) sat.Lit {
	// Ripple from LSB: lt = (~a_i & b_i) | (a_i==b_i) & lt.
	lt := c.False()
	for i := range a {
		lt = c.Or(c.And(a[i].Not(), b[i]), c.And(c.Xnor(a[i], b[i]), lt))
	}
	return lt
}

// ULE returns a <=u b.
func (c *Circuit) ULE(a, b Word) sat.Lit { return c.ULT(b, a).Not() }

// SLT returns a <s b (flip sign bits and compare unsigned).
func (c *Circuit) SLT(a, b Word) sat.Lit {
	af := append(Word{}, a...)
	bf := append(Word{}, b...)
	af[len(af)-1] = af[len(af)-1].Not()
	bf[len(bf)-1] = bf[len(bf)-1].Not()
	return c.ULT(af, bf)
}

// SLE returns a <=s b.
func (c *Circuit) SLE(a, b Word) sat.Lit { return c.SLT(b, a).Not() }

// ZExt widens with zero bits.
func (c *Circuit) ZExt(a Word, w uint) Word {
	out := append(Word{}, a...)
	for uint(len(out)) < w {
		out = append(out, c.False())
	}
	return out
}

// SExt widens with copies of the sign bit.
func (c *Circuit) SExt(a Word, w uint) Word {
	out := append(Word{}, a...)
	sign := a[len(a)-1]
	for uint(len(out)) < w {
		out = append(out, sign)
	}
	return out
}

// Trunc narrows to w bits.
func (c *Circuit) Trunc(a Word, w uint) Word {
	return append(Word{}, a[:w]...)
}

// ShlConst shifts left by a constant amount.
func (c *Circuit) ShlConst(a Word, s uint) Word {
	w := uint(len(a))
	out := make(Word, w)
	for i := uint(0); i < w; i++ {
		if i < s {
			out[i] = c.False()
		} else {
			out[i] = a[i-s]
		}
	}
	return out
}

// LShrConst shifts right logically by a constant amount.
func (c *Circuit) LShrConst(a Word, s uint) Word {
	w := uint(len(a))
	out := make(Word, w)
	for i := uint(0); i < w; i++ {
		if i+s < w {
			out[i] = a[i+s]
		} else {
			out[i] = c.False()
		}
	}
	return out
}

// shiftKind selects a barrel shifter's fill behaviour.
type shiftKind int

const (
	shiftLeft shiftKind = iota
	shiftRightLogical
	shiftRightArith
)

// BarrelShift shifts a by the amount word s. overshift is true when
// s >= width (the result bits are then the fill value, and the caller
// treats the execution as ill-defined for shl/lshr/ashr).
func (c *Circuit) BarrelShift(a Word, s Word, kind shiftKind) (out Word, overshift sat.Lit) {
	w := uint(len(a))
	out = append(Word{}, a...)
	// Mux stages for each amount bit that can matter.
	for k := uint(0); (uint(1) << k) < w; k++ {
		shifted := make(Word, w)
		amt := uint(1) << k
		for i := uint(0); i < w; i++ {
			switch kind {
			case shiftLeft:
				if i < amt {
					shifted[i] = c.False()
				} else {
					shifted[i] = out[i-amt]
				}
			case shiftRightLogical:
				if i+amt < w {
					shifted[i] = out[i+amt]
				} else {
					shifted[i] = c.False()
				}
			case shiftRightArith:
				if i+amt < w {
					shifted[i] = out[i+amt]
				} else {
					shifted[i] = out[w-1]
				}
			}
		}
		out = c.MuxWord(s[k], shifted, out)
	}
	// Overshift: the amount, as an unsigned w-bit number, is >= w.
	overshift = c.ULT(s, c.ConstWord(apint.New(w, uint64(w)))).Not()
	if w == 1 {
		// Width 1: amount >= 1 means overshift; ULT(s, 1) = ~s0.
		overshift = s[0]
	}
	fill := c.False()
	if kind == shiftRightArith {
		fill = a[w-1]
	}
	fillWord := make(Word, w)
	for i := range fillWord {
		fillWord[i] = fill
	}
	out = c.MuxWord(overshift, fillWord, out)
	return out, overshift
}

// Mul returns the low-w product and overflow indicators: umulOv (the 2w-bit
// product exceeds w bits) and smulOv (signed overflow).
func (c *Circuit) Mul(a, b Word) (out Word, umulOv, smulOv sat.Lit) {
	w := uint(len(a))
	// The working product is 2w bits wide, which can exceed apint's
	// maximum width: build the accumulator literally.
	w2 := 2 * w
	az := c.ZExt(a, w2)
	bz := c.ZExt(b, w2)
	acc := make(Word, w2)
	for i := range acc {
		acc[i] = c.False()
	}
	for i := uint(0); i < w; i++ { // b's high zext bits contribute nothing
		shifted := c.ShlConst(az, i)
		gated := make(Word, w2)
		for j := range shifted {
			gated[j] = c.And(shifted[j], bz[i])
		}
		acc = c.Add(acc, gated)
	}
	out = c.Trunc(acc, w)
	// Unsigned overflow: any high bit of the unsigned 2w product set.
	umulOv = c.OrN(acc[w:]...)
	// Signed product = unsigned product adjusted: s(a)*s(b) at 2w equals
	// zext product minus (a<0 ? b<<w : 0) minus (b<0 ? a<<w : 0).
	sprod := acc
	aNeg, bNeg := a[w-1], b[w-1]
	bShift := c.ShlConst(bz, w)
	aShift := c.ShlConst(az, w)
	gate := func(g sat.Lit, x Word) Word {
		out := make(Word, len(x))
		for i := range x {
			out[i] = c.And(g, x[i])
		}
		return out
	}
	sprod, _ = c.Sub(sprod, gate(aNeg, bShift))
	sprod, _ = c.Sub(sprod, gate(bNeg, aShift))
	// Signed overflow: the top w+1 bits of sprod are not all equal.
	ref := sprod[w-1]
	var diff []sat.Lit
	for i := w; i < w2; i++ {
		diff = append(diff, c.Xor(sprod[i], ref))
	}
	smulOv = c.OrN(diff...)
	return out, umulOv, smulOv
}

// UDivURem returns the unsigned quotient and remainder via restoring
// division. For a zero divisor the outputs are unconstrained placeholders;
// callers exclude that case with a side condition.
func (c *Circuit) UDivURem(a, b Word) (quot, rem Word) {
	w := uint(len(a))
	// The working remainder needs one extra bit (it can reach 2*b-1
	// mid-step); build the extended words literally since ext may exceed
	// apint's maximum width.
	ext := w + 1
	bExt := c.ZExt(b, ext)
	r := make(Word, ext)
	for i := range r {
		r[i] = c.False()
	}
	quot = make(Word, w)
	for i := int(w) - 1; i >= 0; i-- {
		// r = (r << 1) | a_i
		r = c.ShlConst(r, 1)
		r[0] = a[i]
		diff, carry := c.Sub(r, bExt) // carry=1 iff r >= b
		quot[i] = carry
		r = c.MuxWord(carry, diff, r)
	}
	rem = c.Trunc(r, w)
	return quot, rem
}

// SDivSRem returns the signed (truncate-toward-zero) quotient and
// remainder built from unsigned division of magnitudes.
func (c *Circuit) SDivSRem(a, b Word) (quot, rem Word) {
	w := uint(len(a))
	aNeg, bNeg := a[w-1], b[w-1]
	absA := c.MuxWord(aNeg, c.Neg(a), a)
	absB := c.MuxWord(bNeg, c.Neg(b), b)
	uq, ur := c.UDivURem(absA, absB)
	qNeg := c.Xor(aNeg, bNeg)
	quot = c.MuxWord(qNeg, c.Neg(uq), uq)
	rem = c.MuxWord(aNeg, c.Neg(ur), ur)
	return quot, rem
}

// PopCount returns the number of set bits, as a word of the same width.
func (c *Circuit) PopCount(a Word) Word {
	w := uint(len(a))
	acc := c.ConstWord(apint.Zero(w))
	one := c.ConstWord(apint.One(w))
	zero := c.ConstWord(apint.Zero(w))
	for i := range a {
		acc = c.Add(acc, c.MuxWord(a[i], one, zero))
	}
	return acc
}

// Cttz returns the count of trailing zeros (width for zero input).
func (c *Circuit) Cttz(a Word) Word {
	w := uint(len(a))
	out := c.ConstWord(apint.New(w, uint64(w)))
	for i := int(w) - 1; i >= 0; i-- {
		out = c.MuxWord(a[i], c.ConstWord(apint.New(w, uint64(i))), out)
	}
	return out
}

// Ctlz returns the count of leading zeros (width for zero input).
func (c *Circuit) Ctlz(a Word) Word {
	w := uint(len(a))
	out := c.ConstWord(apint.New(w, uint64(w)))
	for i := 0; i < int(w); i++ {
		out = c.MuxWord(a[i], c.ConstWord(apint.New(w, uint64(int(w)-1-i))), out)
	}
	return out
}

// BSwap reverses byte order.
func (c *Circuit) BSwap(a Word) Word {
	w := uint(len(a))
	if w%8 != 0 {
		panic("bitblast: bswap of non-byte width")
	}
	nb := w / 8
	out := make(Word, w)
	for byteIdx := uint(0); byteIdx < nb; byteIdx++ {
		for bit := uint(0); bit < 8; bit++ {
			out[byteIdx*8+bit] = a[(nb-1-byteIdx)*8+bit]
		}
	}
	return out
}

// BitReverse reverses bit order.
func (c *Circuit) BitReverse(a Word) Word {
	w := len(a)
	out := make(Word, w)
	for i := range a {
		out[i] = a[w-1-i]
	}
	return out
}

// RotLConst rotates left by a constant amount.
func (c *Circuit) RotLConst(a Word, s uint) Word {
	w := uint(len(a))
	s %= w
	out := make(Word, w)
	for i := uint(0); i < w; i++ {
		out[(i+s)%w] = a[i]
	}
	return out
}

// Rotate rotates by a variable amount (taken modulo the width), left or
// right. Built as a mux chain over all residues — width is small.
func (c *Circuit) Rotate(a Word, s Word, left bool) Word {
	w := uint(len(a))
	_, amt := c.UDivURem(s, c.ConstWord(apint.New(w, uint64(w))))
	out := c.ConstWord(apint.Zero(w))
	for k := uint(0); k < w; k++ {
		rot := k
		if !left {
			rot = (w - k) % w
		}
		isK := c.Eq(amt, c.ConstWord(apint.New(w, uint64(k))))
		out = c.MuxWord(isK, c.RotLConst(a, rot), out)
	}
	return out
}

// UMin returns the unsigned minimum of two words.
func (c *Circuit) UMin(a, b Word) Word {
	return c.MuxWord(c.ULT(a, b), a, b)
}

// UMax returns the unsigned maximum of two words.
func (c *Circuit) UMax(a, b Word) Word {
	return c.MuxWord(c.ULT(a, b), b, a)
}

// SMin returns the signed minimum of two words.
func (c *Circuit) SMin(a, b Word) Word {
	return c.MuxWord(c.SLT(a, b), a, b)
}

// SMax returns the signed maximum of two words.
func (c *Circuit) SMax(a, b Word) Word {
	return c.MuxWord(c.SLT(a, b), b, a)
}

// Abs returns |a| (MinSigned maps to itself, as the flagless llvm.abs
// does).
func (c *Circuit) Abs(a Word) Word {
	return c.MuxWord(a[len(a)-1], c.Neg(a), a)
}

// FunnelShift builds llvm.fshl/fshr: concatenate a (high) and b (low) and
// shift by s modulo the width, keeping the high (fshl) or low (fshr) half.
// Like Rotate, it is a mux chain over residues.
func (c *Circuit) FunnelShift(a, b, s Word, left bool) Word {
	w := uint(len(a))
	_, amt := c.UDivURem(s, c.ConstWord(apint.New(w, uint64(w))))
	var out Word
	if left {
		out = append(Word{}, a...) // residue 0: fshl = a
	} else {
		out = append(Word{}, b...) // residue 0: fshr = b
	}
	for k := uint(1); k < w; k++ {
		var shifted Word
		if left {
			shifted = c.OrWord(c.ShlConst(a, k), c.LShrConst(b, w-k))
		} else {
			shifted = c.OrWord(c.ShlConst(a, w-k), c.LShrConst(b, k))
		}
		isK := c.Eq(amt, c.ConstWord(apint.New(w, uint64(k))))
		out = c.MuxWord(isK, shifted, out)
	}
	return out
}

// Value reads a word's value from the solver's model.
func (c *Circuit) Value(w Word) apint.Int {
	v := apint.Zero(uint(len(w)))
	for i, l := range w {
		bit := c.S.Value(l.Var())
		if l.IsNeg() {
			bit = !bit
		}
		if bit {
			v = v.SetBit(uint(i))
		}
	}
	return v
}
