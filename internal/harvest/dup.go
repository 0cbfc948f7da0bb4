package harvest

import (
	"fmt"
	"math/rand"

	"dfcheck/internal/ir"
)

// ShuffledCopy rebuilds f as a structurally equivalent alpha-variant: the
// input variables are renamed (d0, d1, ... in a random permutation of
// first-occurrence order) and the operands of commutative instructions
// are randomly swapped. Widths, flags, constants, and range metadata are
// preserved, so the copy canonicalizes (internal/canon) to the same key
// as the original — it is "the same expression, harvested from another
// compilation unit", the duplication the paper measures in §3.1.
func ShuffledCopy(f *ir.Function, rng *rand.Rand) *ir.Function {
	perm := rng.Perm(len(f.Vars))
	names := make(map[string]string, len(f.Vars))
	for i, v := range f.Vars {
		names[v.Name] = fmt.Sprintf("d%d", perm[i])
	}
	b := ir.NewBuilder()
	memo := make(map[*ir.Inst]*ir.Inst)
	var build func(n *ir.Inst) *ir.Inst
	build = func(n *ir.Inst) *ir.Inst {
		if m, ok := memo[n]; ok {
			return m
		}
		var m *ir.Inst
		switch {
		case n.IsVar():
			if n.HasRange {
				m = b.VarRange(names[n.Name], n.Width, n.Lo, n.Hi)
			} else {
				m = b.Var(names[n.Name], n.Width)
			}
		case n.IsConst():
			m = b.Const(n.Val)
		case n.Op.IsCast():
			m = b.BuildCast(n.Op, n.Width, build(n.Args[0]))
		default:
			args := append([]*ir.Inst(nil), n.Args...)
			if n.Op.IsCommutative() && rng.Intn(2) == 0 {
				args[0], args[1] = args[1], args[0]
			}
			built := make([]*ir.Inst, len(args))
			for i, a := range args {
				built[i] = build(a)
			}
			m = b.Build(n.Op, n.Flags, built...)
		}
		memo[n] = m
		return m
	}
	return b.Function(build(f.Root))
}

// DuplicationShaped expands Generate's corpus into one with explicit
// duplicate entries: each unique expression appears min(Freq, maxCopies)
// times, the copies being shuffled alpha-variants rather than pointer
// aliases. The result has the §3.1 shape a real harvest would have before
// deduplication — the corpus the comparator's oracle cache is designed
// for. All entries have Freq 1. maxCopies <= 0 means no cap.
func DuplicationShaped(cfg Config, maxCopies int) []Expr {
	base := Generate(cfg)
	rng := newGenRand(cfg.Seed ^ 0x5f3a_22e1)
	var out []Expr
	for _, e := range base {
		n := e.Freq
		if maxCopies > 0 && n > maxCopies {
			n = maxCopies
		}
		out = append(out, Expr{Name: e.Name, F: e.F, Freq: 1})
		for c := 1; c < n; c++ {
			out = append(out, Expr{
				Name: fmt.Sprintf("%s-dup%d", e.Name, c),
				F:    ShuffledCopy(e.F, rng),
				Freq: 1,
			})
		}
	}
	return out
}
