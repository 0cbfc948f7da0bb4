package compare

import (
	"context"
	"errors"
	"fmt"

	"dfcheck/internal/factsvc"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
)

// The fact-service glue: the service package defines the transport
// (admission, solve slots, HTTP surface) and this file supplies the
// solver — the comparator's cached, deduplicated oracle pipeline —
// keeping the dependency one-way (factsvc never imports compare).

// OracleFacts computes the eight Table 1 oracle facts for f, rendered
// in the paper's print format, going through the comparator's result
// cache and its per-key flight when a cache is set. Demanded bits
// yields one fact per input variable, in declaration order, labeled
// "demanded bits (<var>)".
func (c *Comparator) OracleFacts(ctx context.Context, f *ir.Function) []factsvc.Fact {
	o := c.oracleFor(ctx, f)
	c.recordCompared([]*compared{{oracle: o}})
	return renderFacts(f, o)
}

// renderFacts renders o, the oracle results for f, as OracleFacts
// documents.
func renderFacts(f *ir.Function, o *oracleSet) []factsvc.Fact {
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

// NewFactService builds the fact service on top of this comparator:
// every query runs the OracleFacts pipeline, so it flows through the
// same sharded cache and per-key flight a concurrently running campaign
// uses, and queries and campaign batches deduplicate against each other.
// The comparator must have a Cache, because that is where the dedup
// lives; the canonical hash each answer carries is the one its cache
// keys were computed from.
func (c *Comparator) NewFactService(cfg factsvc.Config) (*factsvc.Service, error) {
	if c.Cache == nil {
		return nil, errors.New("compare: the fact service needs a comparator with a Cache")
	}
	cfg.Solve = func(ctx context.Context, f *ir.Function) (uint64, []factsvc.Fact, error) {
		o := c.oracleFor(ctx, f)
		return o.Hash, renderFacts(f, o), nil
	}
	if cfg.Metrics == nil {
		cfg.Metrics = c.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = c.Tracer
	}
	return factsvc.New(cfg)
}
