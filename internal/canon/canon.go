// Package canon computes a deterministic canonical form and stable
// structural hash for ir.Function DAGs. Two expressions that differ only
// in input variable names or in the operand order of commutative
// instructions canonicalize to the same form and hash.
//
// This is the keying layer for the duplication-aware result cache
// (internal/rescache): the paper's corpus statistics (§3.1) show that
// 71.6% of harvested expressions recur, so the comparator memoizes oracle
// results under the canonical key and answers every recurrence, renamed
// or reordered, from the cache — the same trick the original artifact
// played with a Redis store of solver results keyed by the Souper text.
//
// Canonicalization proceeds in three steps:
//
//  1. Color refinement. Every instruction gets a structural color: leaves
//     from their width (plus value for constants and range metadata for
//     variables, but never the variable name), interior nodes from their
//     op/width/flags and child colors, with commutative operand colors
//     sorted. Variable colors are then refined Weisfeiler–Leman-style
//     from the multiset of their use sites (user color plus operand slot,
//     with commutative slots collapsed), so that variables playing
//     different roles — e.g. the two inputs of a sub — get distinct
//     colors even when their widths agree. Refinement repeats until the
//     variable partition stabilizes.
//  2. Normalization. Operands of commutative instructions are ordered by
//     color (ties keep the original order, which only happens for
//     genuinely interchangeable operands).
//  3. Alpha-renaming. The DAG is rebuilt through a fresh ir.Builder in
//     normalized traversal order, renaming inputs x0, x1, ... by first
//     occurrence while preserving widths, flags, and range [lo,hi)
//     metadata.
//
// The canonical Key is the Souper text of the rebuilt function — an
// exact structural identity, immune to hash collisions — and Hash is its
// FNV-64a digest for cheap grouping and statistics.
package canon

import (
	"fmt"
	"hash/fnv"
	"sort"

	"dfcheck/internal/ir"
)

// Canon is the canonicalization of one function.
type Canon struct {
	// F is the canonical function: alpha-renamed inputs, commutative
	// operands in canonical order, hash-consed through a fresh builder.
	F *ir.Function
	// Key is the canonical Souper text, an exact structural identity.
	Key string
	// Hash is the FNV-64a digest of Key.
	Hash uint64

	toCanon map[string]string // original variable name -> canonical
	toOrig  map[string]string // canonical variable name -> original
}

// CanonName maps an original input variable name to its canonical name
// (x0, x1, ...). Unknown names map to themselves.
func (c *Canon) CanonName(orig string) string {
	if n, ok := c.toCanon[orig]; ok {
		return n
	}
	return orig
}

// OrigName maps a canonical input variable name back to the original.
// Unknown names map to themselves.
func (c *Canon) OrigName(canonical string) string {
	if n, ok := c.toOrig[canonical]; ok {
		return n
	}
	return canonical
}

// Hash-mixing seeds, one per leaf kind so a var and a const of equal
// width never start from the same color.
const (
	seedVar   = 0x7c6f_76a1_9e4b_0d31
	seedConst = 0x51af_83e2_44c9_7b15
	seedOp    = 0x2bd8_1f3c_66e0_a947
	seedUse   = 0x9137_c2ab_5d08_ef63
)

// splitmix is the splitmix64 finalizer; it gives the cheap FNV-style
// folding below enough diffusion that child-color permutations and
// near-identical constants land in different colors.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func mix(h, v uint64) uint64 { return splitmix(h ^ splitmix(v)) }

// use records one operand position of a user instruction.
type use struct {
	user *ir.Inst
	slot int
}

// Canonicalize computes the canonical form, key, and hash of f. The input
// function is not modified.
func Canonicalize(f *ir.Function) *Canon {
	nodes := f.Insts() // topological: operands before users
	users := make(map[*ir.Inst][]use)
	var vars []*ir.Inst
	for _, n := range nodes {
		for i, a := range n.Args {
			users[a] = append(users[a], use{user: n, slot: i})
		}
		if n.IsVar() {
			vars = append(vars, n)
		}
	}

	color := make(map[*ir.Inst]uint64, len(nodes))
	for _, n := range nodes {
		switch {
		case n.IsVar():
			c := mix(seedVar, uint64(n.Width))
			if n.HasRange {
				c = mix(mix(mix(c, 1), n.Lo.Uint64()), n.Hi.Uint64())
			}
			color[n] = c
		case n.IsConst():
			color[n] = mix(mix(seedConst, uint64(n.Width)), n.Val.Uint64())
		}
	}

	// down recomputes interior colors bottom-up from the current leaf
	// colors, sorting commutative child colors.
	down := func() {
		for _, n := range nodes {
			if n.IsVar() || n.IsConst() {
				continue
			}
			h := mix(mix(mix(seedOp, uint64(n.Op)), uint64(n.Width)), uint64(n.Flags))
			if n.Op.IsCommutative() {
				c0, c1 := color[n.Args[0]], color[n.Args[1]]
				if c1 < c0 {
					c0, c1 = c1, c0
				}
				h = mix(mix(h, c0), c1)
			} else {
				for _, a := range n.Args {
					h = mix(h, color[a])
				}
			}
			color[n] = h
		}
	}
	down()

	// refine updates variable colors from their use contexts until the
	// partition of variables into color classes stops changing. Each
	// round either splits a class or stabilizes, so len(vars)+1 rounds
	// always suffice.
	refine := func() {
		prev := varPartition(vars, color)
		for iter := 0; iter <= len(vars); iter++ {
			next := make([]uint64, len(vars))
			for i, v := range vars {
				sigs := make([]uint64, 0, len(users[v]))
				for _, u := range users[v] {
					slot := uint64(u.slot)
					if u.user.Op.IsCommutative() {
						slot = ^uint64(0) // both slots are the same role
					}
					sigs = append(sigs, mix(mix(seedUse, color[u.user]), slot))
				}
				sort.Slice(sigs, func(a, b int) bool { return sigs[a] < sigs[b] })
				h := color[v]
				for _, s := range sigs {
					h = mix(h, s)
				}
				next[i] = h
			}
			for i, v := range vars {
				color[v] = next[i]
			}
			down()
			part := varPartition(vars, color)
			if samePartition(prev, part) {
				return
			}
			prev = part
		}
	}
	if len(vars) > 1 {
		refine()
		// Individualization: a color class that refinement cannot split
		// holds variables in interchangeable positions (in these DAGs,
		// automorphic ones — e.g. the two inputs of add(x,y) when x and y
		// have no distinguishing uses). Left tied, each commutative node
		// would break the tie by its own original operand order, which
		// varies between alpha-variants. Force one member apart and
		// re-refine until every class is a singleton: for automorphic
		// ties the choice of member is irrelevant (any choice yields the
		// same canonical text), and a theoretical WL-undetected non-
		// automorphic tie can only split equivalent expressions into two
		// cache groups, never merge distinct ones — the Key is the full
		// rebuilt text.
		for {
			classes := make(map[uint64][]*ir.Inst, len(vars))
			for _, v := range vars {
				classes[color[v]] = append(classes[color[v]], v)
			}
			var tied *ir.Inst
			var tiedColor uint64
			for c, members := range classes {
				if len(members) > 1 && (tied == nil || c < tiedColor) {
					tied, tiedColor = members[0], c
				}
			}
			if tied == nil {
				break
			}
			color[tied] = mix(tiedColor, uint64(len(vars)))
			down()
			refine()
		}
	}

	// Rebuild in normalized order, alpha-renaming inputs by first
	// occurrence. The fresh builder hash-conses, so operand-order twins
	// inside the DAG (add(x,y) and add(y,x)) collapse to one node.
	cn := &Canon{
		toCanon: make(map[string]string, len(vars)),
		toOrig:  make(map[string]string, len(vars)),
	}
	b := ir.NewBuilder()
	memo := make(map[*ir.Inst]*ir.Inst, len(nodes))
	var build func(n *ir.Inst) *ir.Inst
	build = func(n *ir.Inst) *ir.Inst {
		if m, ok := memo[n]; ok {
			return m
		}
		var m *ir.Inst
		switch {
		case n.IsVar():
			name := fmt.Sprintf("x%d", len(cn.toCanon))
			cn.toCanon[n.Name] = name
			cn.toOrig[name] = n.Name
			if n.HasRange {
				m = b.VarRange(name, n.Width, n.Lo, n.Hi)
			} else {
				m = b.Var(name, n.Width)
			}
		case n.IsConst():
			m = b.Const(n.Val)
		case n.Op.IsCast():
			m = b.BuildCast(n.Op, n.Width, build(n.Args[0]))
		default:
			args := append([]*ir.Inst(nil), n.Args...)
			if n.Op.IsCommutative() && color[args[1]] < color[args[0]] {
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
	cn.F = b.Function(build(f.Root))
	cn.Key = cn.F.String()
	cn.Hash = HashKey(cn.Key)
	return cn
}

// HashKey digests a canonical key with FNV-64a.
func HashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// varPartition maps each variable to the index of the first variable
// sharing its color, giving a name-free description of the color classes.
func varPartition(vars []*ir.Inst, color map[*ir.Inst]uint64) []int {
	first := make(map[uint64]int, len(vars))
	out := make([]int, len(vars))
	for i, v := range vars {
		c := color[v]
		if j, ok := first[c]; ok {
			out[i] = j
		} else {
			first[c] = i
			out[i] = i
		}
	}
	return out
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
