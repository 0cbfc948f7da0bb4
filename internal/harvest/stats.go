package harvest

import (
	"fmt"
	"strings"
)

// Stats summarizes a corpus the way §3.1 reports the SPEC CPU 2017
// harvest: unique expression count, duplication quantiles, and expression
// sizes.
type Stats struct {
	Unique          int
	TotalEncounters int64
	PctMoreThan1    float64 // encountered more than once
	PctMoreThan10   float64
	PctMoreThan100  float64
	AvgInsts        float64
	MaxInsts        int
}

// StreamingStats generates cfg.NumExprs expressions one at a time and
// accumulates their statistics without retaining the corpus — the
// full-scale §3.1 run (269,113 expressions averaging ~100 instructions)
// would otherwise hold several gigabytes of DAGs.
func StreamingStats(cfg Config) Stats {
	cfg = cfg.Default()
	rng := newGenRand(cfg.Seed)
	var acc statsAcc
	for i := 0; i < cfg.NumExprs; i++ {
		f := genExpr(rng, cfg)
		acc.add(f.NumInsts(), sampleFreq(rng))
	}
	return acc.stats()
}

// ComputeStats derives corpus statistics.
func ComputeStats(corpus []Expr) Stats {
	var acc statsAcc
	for _, e := range corpus {
		acc.add(e.F.NumInsts(), e.Freq)
	}
	return acc.stats()
}

// statsAcc accumulates Stats one expression at a time.
type statsAcc struct {
	s                      Stats
	more1, more10, more100 int
	instSum                int64
}

// add counts one unique expression of insts instructions encountered
// freq times.
func (a *statsAcc) add(insts, freq int) {
	a.s.Unique++
	a.s.TotalEncounters += int64(freq)
	if freq > 1 {
		a.more1++
	}
	if freq > 10 {
		a.more10++
	}
	if freq > 100 {
		a.more100++
	}
	a.instSum += int64(insts)
	a.s.MaxInsts = max(a.s.MaxInsts, insts)
}

func (a *statsAcc) stats() Stats {
	s := a.s
	if s.Unique > 0 {
		u := float64(s.Unique)
		s.PctMoreThan1 = 100 * float64(a.more1) / u
		s.PctMoreThan10 = 100 * float64(a.more10) / u
		s.PctMoreThan100 = 100 * float64(a.more100) / u
		s.AvgInsts = float64(a.instSum) / u
	}
	return s
}

// String renders the statistics in the §3.1 reporting style.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "unique expressions:        %d\n", s.Unique)
	fmt.Fprintf(&sb, "total encounters:          %d\n", s.TotalEncounters)
	fmt.Fprintf(&sb, "encountered more than 1x:  %.1f%%\n", s.PctMoreThan1)
	fmt.Fprintf(&sb, "encountered more than 10x: %.1f%%\n", s.PctMoreThan10)
	fmt.Fprintf(&sb, "encountered more than 100x:%.1f%%\n", s.PctMoreThan100)
	fmt.Fprintf(&sb, "average instructions:      %.1f\n", s.AvgInsts)
	fmt.Fprintf(&sb, "largest expression:        %d instructions\n", s.MaxInsts)
	return sb.String()
}
