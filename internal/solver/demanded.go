package solver

import (
	"context"
	"math/bits"
	"time"

	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
	"dfcheck/internal/trace"
)

// demandedSweep answers every BitMatters query of one function from a
// single exhaustive pass over its input space. EnumEngine always answers
// demanded bits this way; a SAT engine does when NewEngine routes it here
// (at most DemandedSweepBits summed input bits). Above that, NewEngine
// gives the SAT engine a demandedSample instead (below), which proves
// what bits it can by sampled witness pairs and leaves the rest to the
// miter.
type demandedSweep struct {
	f    *ir.Function
	bits []bool // by packed input position, once swept
}

// bitMatters answers BitMatters(v, bit), running the sweep on sliced, the
// engine's compiled function, on first use. Like every enumeration query
// it counts one query and one enum query in st, under a "bit-matters"
// span of class enum. A sweep that ctx or deadline stops is not kept,
// and the query counts as exhausted.
func (d *demandedSweep) bitMatters(st *Stats, parent *trace.Span, ctx context.Context, deadline time.Time, sliced *eval.SlicedProgram, v *ir.Inst, bit uint) (bool, bool) {
	st.Queries++
	st.EnumQueries++
	sp := startEnum(parent, "bit-matters")
	if d.bits == nil && !d.sweep(sliced, sp, ctx, deadline) {
		st.Exhausted++
		endEnum(sp, false, false)
		return false, false
	}
	pos := packedPos(d.f, v, bit)
	endEnum(sp, d.bits[pos], true)
	return d.bits[pos], true
}

// packedPos is the position of bit of input v in f's packed input
// vector: variable k's bits sit above variable k-1's, as
// eval.ForEachInput packs them.
func packedPos(f *ir.Function, v *ir.Inst, bit uint) uint {
	pos := bit
	for _, u := range f.Vars {
		if u == v {
			break
		}
		pos += u.Width
	}
	return pos
}

// sweep decides, for every packed input position of the function
// (variable k's bits above variable k-1's, as eval.ForEachInput packs
// them), whether flipping that input bit can change the output, and keeps
// the answers in d.bits: a bit is demanded iff some pair of well-defined
// inputs that differ only in it produce different outputs (Algorithm 2's
// two-copy condition).
//
// Each 64-lane block of the input space is evaluated once, and its root
// planes and ok mask are kept, 2^(n-6) blocks × root-width words in all:
// at most 512 KB, for an i64 root at the DemandedSweepBits input bits no
// sweep exceeds. The two sides of a
// bit at packed position p < 6 are lanes l and l+2^p of one block,
// compared by shifting the planes; those of a bit at p ≥ 6 are the same
// lane of blocks b and b+2^(p-6), compared from the table when the later
// block is evaluated. The sweep stops as soon as every bit is demanded.
//
// ctx and deadline are checked before the sweep and then as
// eval.PollBlockMask says (every 64 blocks); once either fires the sweep
// stops and returns false, keeping nothing.
// The sweep span, a "demanded-sweep" child of parent, records the lanes
// evaluated.
func (d *demandedSweep) sweep(sliced *eval.SlicedProgram, parent *trace.Span, ctx context.Context, deadline time.Time) bool {
	if cancelled(ctx, deadline) {
		return false
	}
	sp := parent.Child(trace.KindIter, "demanded-sweep")
	n := eval.TotalInputBits(d.f)
	w := uint64(d.f.Root.Width)
	low, blocks := n, uint64(1) // positions inside a block; blocks in the space
	if n > 6 {
		low, blocks = 6, 1<<(n-6)
	}
	roots := make([]uint64, blocks*w)
	oks := make([]uint64, blocks)
	demanded := make([]bool, n)
	undecided := n
	var evals int64
	ok := true
	for b := uint64(0); b < blocks && undecided > 0; b++ {
		if b > 0 && b&eval.PollBlockMask == 0 && cancelled(ctx, deadline) {
			ok = false
			break
		}
		planes, okm := sliced.EvalIndexed(b << 6)
		evals += 64
		if okm == 0 {
			continue // oks[b] stays 0: no pair with this block counts
		}
		oks[b] = okm
		row := roots[b*w : (b+1)*w]
		copy(row, planes)
		for pos := uint(0); pos < low; pos++ {
			if demanded[pos] {
				continue
			}
			sib := uint(1) << pos
			both := okm & (okm >> sib) &^ eval.LaneIndex[pos] // lanes with bit pos clear
			if both == 0 {
				continue
			}
			var diff uint64
			for _, pl := range row {
				diff |= pl ^ pl>>sib
			}
			if diff&both != 0 {
				demanded[pos] = true
				undecided--
			}
		}
		for q := uint(0); q+6 < n; q++ {
			if b>>q&1 == 0 || demanded[q+6] {
				continue
			}
			s := b &^ (1 << q)
			both := okm & oks[s]
			if both == 0 {
				continue
			}
			var diff uint64
			for i, pl := range roots[s*w : (s+1)*w] {
				diff |= pl ^ row[i]
			}
			if diff&both != 0 {
				demanded[q+6] = true
				undecided--
			}
		}
	}
	sp.SetInt("evals", evals)
	sp.End()
	if ok {
		d.bits = demanded
	}
	return ok
}

// sampleBlocks is the number of 64-lane blocks the demanded-bits sampler
// draws. In one sequential 200-batch pass of the benchmark's campaign
// workload, eight blocks proved 1,506 of the 1,692 bits a miter query
// would have found demanded.
const sampleBlocks = 8

// demandedSample proves input bits demanded by concrete witness pairs,
// ahead of the miter: a SAT engine built by NewEngine above
// DemandedSweepBits asks it first, and only the bits no sample separates
// get a miter query. A proof is one lane where an input and the same
// input with the bit flipped are both well-defined and give different
// outputs — exactly a satisfying assignment of the miter.
type demandedSample struct {
	f       *ir.Function
	ran     bool
	proved  []bool     // by packed input position, once run
	witness [][]uint64 // by packed position: the proving input, one value per variable
}

// bitMatters answers BitMatters(v, bit) when the sample proves the bit
// demanded, running the sampler on sliced, the engine's compiled
// function, on first use. An answer counts one query and one enum query
// in st under a "bit-matters" span of class enum, as the sweep's do.
// answered is false when no sample separates the bit: the caller then
// asks the miter, which counts the query itself.
func (d *demandedSample) bitMatters(st *Stats, parent *trace.Span, ctx context.Context, deadline time.Time, sliced *eval.SlicedProgram, v *ir.Inst, bit uint) (answered bool) {
	if !d.ran {
		d.run(sliced, parent, ctx, deadline)
	}
	if !d.proved[packedPos(d.f, v, bit)] {
		return false
	}
	st.Queries++
	st.EnumQueries++
	endEnum(startEnum(parent, "bit-matters"), true, true)
	return true
}

// run draws sampleBlocks blocks of 64 seeded pseudo-random input lanes
// (drawPlanes) and evaluates each block once as drawn and once per input
// bit not yet proved, with that bit flipped in every lane: at most
// sampleBlocks × (1 + input bits) block evaluations. A lane where both
// runs are well-defined and the outputs differ proves the bit demanded,
// and the lane's input is kept as its witness. The seed is fixed, so a
// function gets the same answers on every run.
//
// ctx and deadline are checked before the sampler starts, as the sweep
// does; a cancelled sampler proves nothing and every bit goes to the
// miter, which fails as exhausted. The "demanded-sample" span, a child of
// parent, records the lanes evaluated.
func (d *demandedSample) run(sliced *eval.SlicedProgram, parent *trace.Span, ctx context.Context, deadline time.Time) {
	d.ran = true
	n := eval.TotalInputBits(d.f)
	d.proved = make([]bool, n)
	d.witness = make([][]uint64, n)
	if cancelled(ctx, deadline) {
		return
	}
	sp := parent.Child(trace.KindIter, "demanded-sample")
	vars := d.f.Vars
	rng := sampleRNG(d.f)
	in := newPlanes(vars)                  // the block's inputs, as planes
	lanes := make([][64]uint64, len(vars)) // the same inputs by lane, once a witness needs them
	root := make([]uint64, d.f.Root.Width)
	var evals int64
	undecided := n
	for blk := 0; blk < sampleBlocks && undecided > 0; blk++ {
		drawPlanes(rng, vars, in)
		haveLanes := false
		planes, ok := sliced.EvalPlanes(in)
		evals += 64
		if ok == 0 {
			continue
		}
		copy(root, planes)
		pos := 0
		for k, v := range vars {
			for j := 0; j < int(v.Width); j, pos = j+1, pos+1 {
				if d.proved[pos] {
					continue
				}
				in[k][j] = ^in[k][j]
				flipped, okf := sliced.EvalPlanes(in)
				in[k][j] = ^in[k][j]
				evals += 64
				var diff uint64
				for i, pl := range flipped {
					diff |= pl ^ root[i]
				}
				sep := diff & ok & okf
				if sep == 0 {
					continue
				}
				if !haveLanes {
					for k2 := range vars {
						eval.Lanes(in[k2], ^uint64(0), &lanes[k2])
					}
					haveLanes = true
				}
				l := bits.TrailingZeros64(sep)
				wit := make([]uint64, len(vars))
				for k2 := range vars {
					wit[k2] = lanes[k2][l]
				}
				d.proved[pos], d.witness[pos] = true, wit
				undecided--
			}
		}
	}
	sp.SetInt("evals", evals)
	sp.End()
}
