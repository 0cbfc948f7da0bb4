package solver

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"time"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/ir"
)

// This file implements Engine.RefuteWindow, the evaluation certificate
// that settles Algorithm 3's hopeless size searches without a solver: a
// set of reachable outputs, found by running the function on concrete
// inputs, that no wrapped window of the asked size covers. Every output
// in the set comes from a well-defined execution, so the certificate is
// as sound as the interpreter: no window of that size, or any smaller
// one, holds every achievable output.

// rangeSampleBlocks is the most 64-lane blocks a SAT engine above
// DemandedSweepBits draws for one certificate; it checks after 64, 128,
// 256, … blocks and stops at the first refutation. Of the 29 table1
// searches that reach a SAT engine's certificate, 10 are refuted within
// 64 blocks, 21 within 1,024, 25 within 4,096 and 26 within 16,384, and
// no more within 262,144. The three left cost 2 to 35 ms each at this
// bound on a 2-CPU Xeon, and of the bounds tried this one gives a table1
// pass's range searches the least time.
const rangeSampleBlocks = 1 << 14

// maxWindowBuckets bounds a windowSet's buckets: a size whose complement
// is shorter than 2^w / maxWindowBuckets is not attempted.
const maxWindowBuckets = 1 << 16

// windowSet keeps reachable outputs just finely enough to decide whether
// some wrapped window of size c covers them. A window of size c covers a
// set iff one of the set's holes (the circular runs of values outside it)
// is at least g = 2^w − c long, room for the window's complement. The
// values are split into aligned buckets of the largest power of two at
// most g, and each bucket keeps only its least and greatest member: a
// hole inside one bucket is shorter than g, so the holes that matter all
// run from one non-empty bucket's greatest member to the next one's
// least, and those the bounds give exactly. Memory is two words per
// bucket, at most 2^w/g × 2 of them (about 670 at Algorithm 3's bound),
// whatever the root's width.
type windowSet struct {
	top    uint64   // 2^w − 1
	hole   uint64   // g − 1, the longest hole a refutation allows
	shift  uint     // log2 of the bucket length
	lo, hi []uint64 // per bucket: least and greatest member; lo > hi when empty
}

// newWindowSet returns an empty set deciding windows of size c at width
// w, or nil when c is zero or leaves more than maxWindowBuckets buckets.
func newWindowSet(w uint, c apint.Int) *windowSet {
	if c.IsZero() {
		return nil
	}
	g := c.Neg().Uint64() // 2^w − c, not zero for c ≠ 0
	top := apint.AllOnes(w).Uint64()
	shift := uint(bits.Len64(g) - 1)
	if top>>shift >= maxWindowBuckets {
		return nil
	}
	n := top>>shift + 1
	ws := &windowSet{top: top, hole: g - 1, shift: shift, lo: make([]uint64, n), hi: make([]uint64, n)}
	for i := range ws.lo {
		ws.lo[i] = ^uint64(0)
	}
	return ws
}

// add records the reachable output v.
func (ws *windowSet) add(v uint64) {
	i := v >> ws.shift
	ws.lo[i] = min(ws.lo[i], v)
	ws.hi[i] = max(ws.hi[i], v)
}

// refuted reports whether no window of the set's size covers it: the set
// is not empty and every hole, the wrapped one included, is shorter than
// g.
func (ws *windowSet) refuted() bool {
	first, prev := -1, uint64(0)
	for i, lo := range ws.lo {
		if lo > ws.hi[i] {
			continue
		}
		if first < 0 {
			first = i
		} else if lo-prev-1 > ws.hole {
			return false
		}
		prev = ws.hi[i]
	}
	return first >= 0 && ws.lo[first]+(ws.top-prev) <= ws.hole
}

// refuteBlocks evaluates blocks 0..n-1, next(b) giving block b's root
// planes and well-defined mask, into ws and reports whether their outputs
// refute it. It checks after 64, 128, 256, … blocks and after the last
// one, and stops at the first refutation. ctx and deadline are checked
// before the first block and then as eval.PollBlockMask says, as the
// sweeps do; once either fires it stops with ok false, refuting nothing.
// evals counts the lanes evaluated, 64 per block.
func refuteBlocks(ws *windowSet, n uint64, next func(b uint64) ([]uint64, uint64), ctx context.Context, deadline time.Time) (refuted bool, evals int64, ok bool) {
	var lanes [64]uint64
	for b := uint64(0); b < n; b++ {
		if b&eval.PollBlockMask == 0 && cancelled(ctx, deadline) {
			return false, evals, false
		}
		planes, okm := next(b)
		evals += 64
		if okm != 0 {
			eval.Lanes(planes, okm, &lanes)
			for ; okm != 0; okm &= okm - 1 {
				ws.add(lanes[bits.TrailingZeros64(okm)])
			}
		}
		if done := b + 1; (done == n || done >= 64 && done&(done-1) == 0) && ws.refuted() {
			return true, evals, true
		}
	}
	return false, evals, true
}

// sampleRNG is the seeded generator the samplers draw f's lanes from, so
// a function gets the same answers on every run.
func sampleRNG(f *ir.Function) *rand.Rand {
	return rand.New(rand.NewPCG(0x5eed, uint64(eval.TotalInputBits(f))))
}

// newPlanes allocates one block of input planes for vars, as
// eval.SlicedProgram.EvalPlanes takes them.
func newPlanes(vars []*ir.Inst) [][]uint64 {
	in := make([][]uint64, len(vars))
	for k, v := range vars {
		in[k] = make([]uint64, v.Width)
	}
	return in
}

// drawPlanes fills in with 64 pseudo-random input lanes, one random word
// per input bit. In about half of each variable's lanes the planes from
// bit b up are cleared, b the smallest with 2^b at least twice the
// variable's width, so that shift amounts land in range.
func drawPlanes(rng *rand.Rand, vars []*ir.Inst, in [][]uint64) {
	for k, v := range vars {
		small := rng.Uint64()
		for j := range in[k] {
			in[k][j] = rng.Uint64()
			if 1<<j >= 2*v.Width {
				in[k][j] &^= small
			}
		}
	}
}

// RefuteWindow implements Engine from the memoized output set.
func (e *EnumEngine) RefuteWindow(size apint.Int) bool {
	e.stats.Queries++
	e.stats.EnumQueries++
	sp := startEnum(e.span, "range-sample")
	if !e.ensureOutputs(sp) {
		e.stats.Exhausted++
		endEnum(sp, false, false)
		return false
	}
	refuted := false
	if ws := newWindowSet(e.f.Width(), size); ws != nil {
		for _, v := range e.outputs {
			ws.add(v)
		}
		refuted = ws.refuted()
	}
	endEnum(sp, refuted, true)
	return refuted
}

// RefuteWindow implements Engine by evaluation on the sliced evaluator,
// for engines NewEngine builds with its fast path on: over the whole
// input space up to DemandedSweepBits (where the demanded-bits sweep
// answers), and over up to rangeSampleBlocks seeded random blocks,
// drawn as the demanded-bits sampler draws them, above it. NewSAT's
// engines, and NewEngine's with a negative cutoff, refute nothing and
// count nothing, so their size search stays the reference.
func (e *SATEngine) RefuteWindow(size apint.Int) bool {
	if e.demanded == nil && e.sample == nil {
		return false
	}
	e.stats.Queries++
	e.stats.EnumQueries++
	sp := startEnum(e.span, "range-sample")
	ws := newWindowSet(e.f.Width(), size)
	if ws == nil {
		endEnum(sp, false, true)
		return false
	}
	sliced := eval.CompileSliced(e.f)
	var n uint64
	var next func(b uint64) ([]uint64, uint64)
	if e.demanded != nil {
		n = 1
		if total := eval.TotalInputBits(e.f); total > 6 {
			n = 1 << (total - 6)
		}
		next = func(b uint64) ([]uint64, uint64) { return sliced.EvalIndexed(b << 6) }
	} else {
		n = rangeSampleBlocks
		rng, vars := sampleRNG(e.f), e.f.Vars
		in := newPlanes(vars)
		next = func(uint64) ([]uint64, uint64) {
			drawPlanes(rng, vars, in)
			return sliced.EvalPlanes(in)
		}
	}
	refuted, evals, ok := refuteBlocks(ws, n, next, e.Ctx, e.Deadline)
	sp.SetInt("evals", evals)
	if !ok {
		e.stats.Exhausted++
	}
	endEnum(sp, refuted, ok)
	return refuted
}
