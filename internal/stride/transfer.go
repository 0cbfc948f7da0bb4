package stride

import (
	"math/bits"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

// Analysis is the stride abstract interpreter: a per-op transfer-function
// suite over S plus a per-instruction DAG walk. The zero value is the
// full (clean) suite — unlike tnum there is no seeded bug here; stride is
// the reference partner of the differential pair.
type Analysis struct{}

// cutPow2 canonicalizes a value known only modulo 2^k. k ≥ w means the
// value is fully determined inside the window, i.e. a singleton.
func cutPow2(w uint, r uint64, k uint) S {
	if k >= w {
		return S{W: w, R: r & limit(w)}
	}
	g := uint64(1) << k
	return Make(w, r&(g-1), g)
}

func addMod(a, b, m uint64) uint64 {
	a %= m
	b %= m
	s, c := bits.Add64(a, b, 0)
	if c != 0 || s >= m {
		s -= m
	}
	return s
}

func subMod(a, b, m uint64) uint64 {
	d := b % m
	if d != 0 {
		d = m - d
	}
	return addMod(a%m, d, m)
}

// mulMod computes a·b mod m without overflow: after reducing the factors
// the 128-bit product's high word is below m, so Div64 is safe.
func mulMod(a, b, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	hi, lo := bits.Mul64(a%m, b%m)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

func constBool(v bool) S {
	if v {
		return S{W: 1, R: 1}
	}
	return S{W: 1}
}

// constSide splits a binary operand pair into a singleton side and the
// other element when exactly the commutative-identity patterns need it.
func constSide(a, b S) (uint64, S, bool) {
	switch {
	case a.IsConst():
		return a.R, b, true
	case b.IsConst():
		return b.R, a, true
	}
	return 0, S{}, false
}

// mulTz returns the number of trailing zeros of
// gcd(a.M·b.R, b.M·a.R, a.M·b.M) without computing the (possibly
// overflowing) products, or -1 when every term vanishes and the product
// is a true constant.
func mulTz(a, b S) int {
	k := -1
	upd := func(x, y uint64) {
		if x == 0 || y == 0 {
			return
		}
		if t := bits.TrailingZeros64(x) + bits.TrailingZeros64(y); k < 0 || t < k {
			k = t
		}
	}
	upd(a.M, b.R)
	upd(b.M, a.R)
	upd(a.M, b.M)
	return k
}

// shlConst maps a through a left shift by the constant c < w.
func shlConst(a S, c, w uint) S {
	if a.M == 0 {
		return S{W: w, R: (a.R << c) & limit(w)}
	}
	if a.Max() <= limit(w)>>c {
		return Make(w, a.R<<c, a.M<<c)
	}
	return cutPow2(w, a.R<<c, uint(bits.TrailingZeros64(a.M))+c)
}

// Transfer is the per-op transfer-function suite. Operand tuples that
// admit no well-defined execution produce bottom; ops where congruence
// information does not survive (bit scans, most divisions, signed
// comparisons) fall back to the always-sound top. Arithmetic stays sound
// under wraparound by cutting the modulus to its largest power-of-two
// divisor not exceeding 2^w whenever the concrete computation can exceed
// the window.
func (an Analysis) Transfer(op ir.Op, flags ir.Flags, dstW uint, args []S) S {
	for _, a := range args {
		if a.Empty {
			return Bottom(dstW)
		}
	}
	allConst := true
	for _, a := range args {
		allConst = allConst && a.IsConst()
	}
	if allConst {
		vals := make([]apint.Int, len(args))
		for i, a := range args {
			vals[i] = apint.New(a.W, a.R)
		}
		if v, ok := eval.ConstFold(op, flags, dstW, vals); ok {
			return Const(v)
		}
		return Bottom(dstW)
	}

	w := dstW
	switch op {
	case ir.OpAdd:
		a, b := args[0], args[1]
		g := gcd(a.M, b.M)
		if s, c := bits.Add64(a.Max(), b.Max(), 0); c != 0 || s > limit(w) {
			return cutPow2(w, a.R+b.R, uint(bits.TrailingZeros64(g)))
		}
		return Make(w, addMod(a.R, b.R, g), g)

	case ir.OpSub:
		a, b := args[0], args[1]
		g := gcd(a.M, b.M)
		if a.Min() < b.Max() {
			return cutPow2(w, a.R-b.R, uint(bits.TrailingZeros64(g)))
		}
		return Make(w, subMod(a.R, b.R, g), g)

	case ir.OpMul:
		a, b := args[0], args[1]
		if hi, lo := bits.Mul64(a.Max(), b.Max()); hi != 0 || lo > limit(w) {
			k := mulTz(a, b)
			if k < 0 {
				return S{W: w, R: (a.R * b.R) & limit(w)}
			}
			return cutPow2(w, a.R*b.R, uint(k))
		}
		// No wrap anywhere, so every gcd term fits in 64 bits.
		g := gcd(gcd(a.M*b.R, b.M*a.R), a.M*b.M)
		if g == 0 {
			return S{W: w, R: a.R * b.R}
		}
		return Make(w, mulMod(a.R, b.R, g), g)

	case ir.OpShl:
		a, s := args[0], args[1]
		out := Bottom(w)
		for c := uint(0); c < w; c++ {
			if s.Contains(apint.New(s.W, uint64(c))) {
				out = out.Join(shlConst(a, c, w))
			}
		}
		return out

	case ir.OpLShr, ir.OpAShr:
		// Only a zero shift preserves congruences; amounts at or above
		// the width are poison and excluded.
		s := args[1]
		for c := uint(1); c < w; c++ {
			if s.Contains(apint.New(s.W, uint64(c))) {
				return Top(w)
			}
		}
		if s.Contains(apint.New(s.W, 0)) {
			return args[0]
		}
		return Bottom(w)

	case ir.OpRotL, ir.OpRotR:
		// Rotation amounts wrap modulo the width; when every feasible
		// amount is a multiple of the width the rotation is the identity.
		s := args[1]
		if wv := uint64(w); s.R%wv == 0 && s.M%wv == 0 {
			return args[0]
		}
		return Top(w)

	case ir.OpZExt:
		return Make(dstW, args[0].R, args[0].M)
	case ir.OpSExt:
		// Sign extension adds a multiple of 2^srcW, so the congruence
		// survives modulo gcd(M, 2^srcW).
		a := args[0]
		k := uint(bits.TrailingZeros64(a.M))
		if k > a.W {
			k = a.W
		}
		return cutPow2(dstW, a.R, k)
	case ir.OpTrunc:
		a := args[0]
		return cutPow2(dstW, a.R, uint(bits.TrailingZeros64(a.M)))

	case ir.OpSelect:
		cond, tv, fv := args[0], args[1], args[2]
		if cond.IsConst() {
			if cond.R == 1 {
				return tv
			}
			return fv
		}
		return tv.Join(fv)

	case ir.OpEq, ir.OpNe:
		if args[0].Meet(args[1]).Empty {
			return constBool(op == ir.OpNe)
		}
		return Top(1)
	case ir.OpULT:
		switch {
		case args[0].Max() < args[1].Min():
			return constBool(true)
		case args[0].Min() >= args[1].Max():
			return constBool(false)
		}
		return Top(1)
	case ir.OpULE:
		switch {
		case args[0].Max() <= args[1].Min():
			return constBool(true)
		case args[0].Min() > args[1].Max():
			return constBool(false)
		}
		return Top(1)

	case ir.OpUAddO:
		ow := args[0].W
		if s, c := bits.Add64(args[0].Max(), args[1].Max(), 0); c == 0 && s <= limit(ow) {
			return constBool(false)
		}
		if s, c := bits.Add64(args[0].Min(), args[1].Min(), 0); c != 0 || s > limit(ow) {
			return constBool(true)
		}
		return Top(1)
	case ir.OpUSubO:
		switch {
		case args[0].Min() >= args[1].Max():
			return constBool(false)
		case args[0].Max() < args[1].Min():
			return constBool(true)
		}
		return Top(1)
	case ir.OpUMulO:
		ow := args[0].W
		if hi, lo := bits.Mul64(args[0].Max(), args[1].Max()); hi == 0 && lo <= limit(ow) {
			return constBool(false)
		}
		if hi, lo := bits.Mul64(args[0].Min(), args[1].Min()); hi != 0 || lo > limit(ow) {
			return constBool(true)
		}
		return Top(1)

	case ir.OpUDiv, ir.OpSDiv, ir.OpSRem:
		if args[1].IsConst() && args[1].R == 0 {
			return Bottom(w) // the divisor is the constant 0: pure UB
		}
		return Top(w)
	case ir.OpURem:
		a, b := args[0], args[1]
		if b.IsConst() && b.R == 0 {
			return Bottom(w)
		}
		// x mod d drops multiples of d, and every feasible divisor is a
		// multiple of gcd(b.R, b.M), so the residue survives modulo
		// gcd(a.M, b.M, b.R). No wrap: remainders stay inside the window.
		g := gcd(gcd(a.M, b.M), b.R)
		return Make(w, a.R%g, g)

	case ir.OpAnd:
		if c, o, ok := constSide(args[0], args[1]); ok {
			switch {
			case c == limit(w):
				return o
			case c == 0:
				return S{W: w}
			case (c+1)&c == 0:
				// A low mask of k bits is reduction modulo 2^k.
				k := uint(bits.TrailingZeros64(c + 1))
				mk := uint(bits.TrailingZeros64(o.M))
				if mk > k {
					mk = k
				}
				return cutPow2(w, o.R, mk)
			}
		}
		return Top(w)
	case ir.OpOr:
		if c, o, ok := constSide(args[0], args[1]); ok {
			switch {
			case c == 0:
				return o
			case c == limit(w):
				return S{W: w, R: limit(w)}
			}
		}
		return Top(w)
	case ir.OpXor:
		if c, o, ok := constSide(args[0], args[1]); ok {
			switch {
			case c == 0:
				return o
			case c == limit(w):
				// Bit complement is 2^w-1 - x: an exact reflection of the
				// progression.
				return Make(w, (limit(w)-o.R)%o.M, o.M)
			}
		}
		return Top(w)

	case ir.OpAbs:
		// abs(x) is x or its two's-complement negation; negation modulo
		// 2^w preserves the congruence modulo gcd(M, 2^w).
		a := args[0]
		neg := cutPow2(w, -a.R, uint(bits.TrailingZeros64(a.M)))
		return a.Join(neg)

	case ir.OpUMin, ir.OpUMax, ir.OpSMin, ir.OpSMax:
		return args[0].Join(args[1])
	}
	return Top(dstW)
}

// Analyze abstract-interprets f, returning the stride element computed
// for every instruction. Variables seed from their range metadata when it
// pins a single value, otherwise from top.
func (an Analysis) Analyze(f *ir.Function) map[*ir.Inst]S {
	out := make(map[*ir.Inst]S)
	for _, n := range f.Insts() {
		switch {
		case n.IsConst():
			out[n] = Const(n.Val)
		case n.IsVar():
			if n.HasRange && n.Lo.ULT(n.Hi) && n.Hi.Sub(n.Lo).IsOne() {
				out[n] = Const(n.Lo)
			} else {
				out[n] = Top(n.Width)
			}
		default:
			args := make([]S, len(n.Args))
			for i, a := range n.Args {
				args[i] = out[a]
			}
			out[n] = an.Transfer(n.Op, n.Flags, n.Width, args)
		}
	}
	return out
}
