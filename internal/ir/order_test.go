package ir_test

import (
	"math/rand"
	"slices"
	"testing"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// refInsts is the depth-first walk Insts ran on every call before
// Builder.Function recorded it: operands before users, in post-order.
func refInsts(f *ir.Function) []*ir.Inst {
	var order []*ir.Inst
	seen := make(map[*ir.Inst]bool)
	var visit func(n *ir.Inst)
	visit = func(n *ir.Inst) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, a := range n.Args {
			visit(a)
		}
		order = append(order, n)
	}
	visit(f.Root)
	return order
}

// TestInstsMatchesReferenceWalk checks the recorded instruction order
// against the walk on generated, parsed and mutated functions, and on a
// function written as a struct literal, which has none recorded.
func TestInstsMatchesReferenceWalk(t *testing.T) {
	var fs []*ir.Function
	for _, e := range harvest.Generate(harvest.Config{
		Seed:     23,
		NumExprs: 200,
		MaxInsts: 6,
		Widths:   []harvest.WidthWeight{{Width: 1, Weight: 1}, {Width: 8, Weight: 2}, {Width: 16, Weight: 1}},
	}) {
		fs = append(fs, e.F)
	}
	for _, fr := range harvest.PaperFragments {
		fs = append(fs, ir.MustParse(fr.Source))
	}
	rng := rand.New(rand.NewSource(5))
	for _, f := range fs[:200] {
		fs = append(fs, harvest.Mutate(f, rng))
	}
	// Reparsing prints and rebuilds each function through a fresh
	// Builder, which hash-conses what the original shared.
	for _, f := range fs[:200] {
		fs = append(fs, ir.MustParse(f.String()))
	}
	literal := fs[0]
	fs = append(fs, &ir.Function{Root: literal.Root, Vars: literal.Vars})
	for i, f := range fs {
		want := refInsts(f)
		if got := f.Insts(); !slices.Equal(got, want) {
			t.Fatalf("function %d:\n%s\nInsts gave %d instructions, the walk %d, or a different order", i, f, len(got), len(want))
		}
		// The recorded slice is shared: an append must copy it rather
		// than write past its end.
		if got := f.Insts(); cap(got) != len(got) {
			t.Fatalf("function %d: Insts has capacity %d beyond its %d instructions", i, cap(got), len(got))
		}
	}
}
