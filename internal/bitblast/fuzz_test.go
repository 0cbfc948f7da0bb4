package bitblast

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
)

// fuzzShiftSrcs seed FuzzBlastMatchesEval with the rotates and funnel
// shifts, whose circuits reduce the amount modulo the width: at powers of
// two, at odd widths and at 64 bits.
var fuzzShiftSrcs = []string{
	"%x:i8 = var\n%y:i8 = var\n%0:i8 = rotl %x, %y\ninfer %0",
	"%x:i13 = var\n%y:i13 = var\n%0:i13 = rotr %x, %y\ninfer %0",
	"%x:i64 = var\n%y:i64 = var\n%0:i64 = rotl %x, %y\ninfer %0",
	"%a:i16 = var\n%b:i16 = var\n%s:i16 = var\n%0:i16 = fshl %a, %b, %s\ninfer %0",
	"%a:i5 = var\n%b:i5 = var\n%s:i5 = var\n%0:i5 = fshr %a, %b, %s\ninfer %0",
	"%a:i32 = var\n%b:i32 = var\n%s:i32 = var\n%0:i32 = fshr %a, %b, %s\n%1:i32 = rotl %0, %s\ninfer %1",
}

// fuzzMaxInsts keeps each fuzz run to a circuit that solves in well
// under a millisecond.
const fuzzMaxInsts = 32

// FuzzBlastMatchesEval checks the bit-blaster against the interpreter on
// one input per run: arbitrary IR text that parses, each variable's
// value read from the fuzz bytes (eight little-endian bytes, wrapping),
// and every input bit fixed by an assumption. The circuit must then be
// satisfiable, WellDefined must hold exactly when eval.Eval's execution
// is well-defined, and the output word must equal Eval's value. Every
// output the evaluator reaches is therefore one the circuit reaches,
// which the oracle's evaluation certificates rely on. Crashers go under
// testdata/fuzz/ as regression inputs.
func FuzzBlastMatchesEval(f *testing.F) {
	seed := make([]byte, 64)
	rand.New(rand.NewSource(5)).Read(seed)
	for _, fr := range harvest.PaperFragments {
		f.Add(fr.Source, seed)
	}
	for _, src := range fuzzShiftSrcs {
		f.Add(src, seed)
		f.Add(src, []byte{0xff})
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		fn, err := ir.Parse(src)
		if err != nil || len(fn.Insts()) > fuzzMaxInsts {
			return
		}
		off := 0
		env := make(eval.Env, len(fn.Vars))
		for _, v := range fn.Vars {
			var x uint64
			for b := 0; b < 8 && len(data) > 0; b++ {
				x |= uint64(data[off%len(data)]) << (8 * b)
				off++
			}
			env[v] = apint.New(v.Width, x)
		}
		s := sat.New()
		b := Blast(s, fn)
		var assumptions []sat.Lit
		for v, word := range b.Inputs {
			for i, l := range word {
				if !env[v].Bit(uint(i)) {
					l = l.Not()
				}
				assumptions = append(assumptions, l)
			}
		}
		inputs := func() string {
			var sb strings.Builder
			for _, v := range fn.Vars {
				fmt.Fprintf(&sb, " %%%s=%v", v.Name, env[v])
			}
			return sb.String()
		}
		if st := s.Solve(assumptions...); st != sat.Sat {
			t.Fatalf("%s\ninputs%s: circuit %v under a full input assignment", src, inputs(), st)
		}
		defined := s.Value(b.WellDefined.Var()) != b.WellDefined.IsNeg()
		want, ok := eval.Eval(fn, env)
		if defined != ok {
			t.Fatalf("%s\ninputs%s: WellDefined %v, eval ok %v", src, inputs(), defined, ok)
		}
		if got := b.C.Value(b.Output); ok && got.Ne(want) {
			t.Fatalf("%s\ninputs%s: circuit %v, eval %v", src, inputs(), got, want)
		}
	})
}
