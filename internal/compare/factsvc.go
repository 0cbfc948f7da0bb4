package compare

import (
	"context"
	"fmt"

	"dfcheck/internal/factsvc"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// The fact-service glue: the service package defines the transport
// (single-flight group, dispatcher, HTTP surface) and this file supplies
// the solver — the comparator's cached, deduplicated oracle pipeline —
// keeping the dependency one-way (factsvc never imports compare).

// OracleFacts computes the eight Table 1 oracle facts for f, rendered
// in the paper's print format, going through the comparator's result
// cache and single-flight layer when a cache is set. Demanded bits
// yields one fact per input variable, in declaration order, labeled
// "demanded bits (<var>)".
func (c *Comparator) OracleFacts(ctx context.Context, f *ir.Function) []factsvc.Fact {
	o := c.oracleFor(ctx, f)
	facts := make([]factsvc.Fact, 0, 7+len(f.Vars))
	add := func(a harvest.Analysis, fact string) {
		facts = append(facts, factsvc.Fact{Analysis: string(a), Fact: fact})
	}
	add(harvest.KnownBits, o.Known.Bits.String())
	add(harvest.SignBits, fmt.Sprint(o.Sign.NumSignBits))
	add(harvest.NonZero, fmt.Sprint(o.NonZero.Proved))
	add(harvest.Negative, fmt.Sprint(o.Negative.Proved))
	add(harvest.NonNegative, fmt.Sprint(o.NonNeg.Proved))
	add(harvest.PowerOfTwo, fmt.Sprint(o.Pow2.Proved))
	add(harvest.IntegerRange, o.Range.Range.String())
	for _, v := range f.Vars {
		mask, ok := o.Demanded.Demanded[v.Name]
		if !ok {
			continue
		}
		add(harvest.DemandedBits+" ("+harvest.Analysis(v.Name)+")", mask.BitString())
	}
	return facts
}

// SolveFunc adapts the comparator to the fact service's solver
// interface.
func (c *Comparator) SolveFunc() factsvc.SolveFunc {
	return func(ctx context.Context, f *ir.Function) ([]factsvc.Fact, error) {
		return c.OracleFacts(ctx, f), nil
	}
}

// NewFactService builds the batched query pipeline on top of this
// comparator: the service's workers solve through OracleFacts, so every
// query flows through the same sharded cache and single-flight group a
// concurrently running campaign uses — queries and campaign batches
// deduplicate against each other.
func (c *Comparator) NewFactService(cfg factsvc.Config) (*factsvc.Service, error) {
	cfg.Solve = c.SolveFunc()
	if cfg.Cache == nil {
		cfg.Cache = c.Cache
	}
	if cfg.Metrics == nil {
		cfg.Metrics = c.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = c.Tracer
	}
	return factsvc.New(cfg)
}
