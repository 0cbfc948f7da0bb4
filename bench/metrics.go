package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units; TestBenchmarkJSONMatches keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them, and none of them can read zero.
var endToEnd = []metricDef{
	// Median of several complete set-ups in one run: inputs generated,
	// golden data decoded, the system built and warmed.
	{"setup_s", "s", "lower"},
	// Expressions compared per second of the timed work, detection left
	// out: Table 1's wall clock per expression (table1), the campaign's
	// throughput (campaign).
	{"exprs_per_s", "1/s", "higher"},
	// Time for the workload's pipeline to turn the seeded bugs into
	// reported findings: the sum over the bugs of each bug's median over
	// the run's detections (see each workload's detect method).
	{"detect_s", "s", "lower"},
	// Peak resident set of the process during the timed loop, sampled
	// every 5 ms.
	{"max_rss_mb", "MB", "lower"},
}

// perLayer is what a traced replay reports. Each workload reports every
// one; a layer the workload does not exercise reads zero.
var perLayer = []metricDef{
	{"oracle.known_bits_s", "s", "lower"},
	{"oracle.sign_bits_s", "s", "lower"},
	{"oracle.predicates_s", "s", "lower"},
	{"oracle.integer_range_s", "s", "lower"},
	{"oracle.demanded_bits_s", "s", "lower"},
	{"oracle.seed_s", "s", "lower"},
	{"oracle.escalated_s", "s", "lower"},
	{"oracle.expr_p50_ms", "ms", "lower"},
	{"oracle.expr_p90_ms", "ms", "lower"},
	{"oracle.expr_max_ms", "ms", "lower"},
	{"solver.engine_s", "s", "lower"},
	{"solver.sat_s", "s", "lower"},
	{"solver.enum_s", "s", "lower"},
	{"solver.queries", "count", "lower"},
	{"solver.pruned_queries", "count", "higher"},
	{"solver.enum_queries", "count", "lower"},
	{"solver.exhausted", "count", "lower"},
	{"solver.portfolio_runs", "count", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sat.propagations", "count", "lower"},
	{"bitblast.blast_s", "s", "lower"},
	{"bitblast.gates", "count", "lower"},
	{"bitblast.gates_deduped", "count", "higher"},
	{"bitblast.clauses", "count", "lower"},
	{"llvmport.analyze_s", "s", "lower"},
	{"absint.lint_s", "s", "lower"},
	{"absint.consistency_checks", "count", "lower"},
	{"harvest.corpus_s", "s", "lower"},
	{"nway.compare_s", "s", "lower"},
	{"nway.comparisons", "count", "lower"},
	{"nway.escalation_ratio", "ratio", "lower"},
	{"detect.bug1_s", "s", "lower"},
	{"detect.bug2_s", "s", "lower"},
	{"detect.bug3_s", "s", "lower"},
	{"detect.bug1_exprs", "count", "lower"},
	{"detect.bug2_exprs", "count", "lower"},
	{"detect.bug3_exprs", "count", "lower"},
	// Sum of the layer times over the replay's wall clock, less the
	// tracer's own time opening and closing spans; below 0.95 the replay
	// fails its own check.
	{"trace.coverage", "ratio", "higher"},
	// The replay's time for the workload's unit work over the untraced
	// pipeline's time for the same inputs.
	{"trace.replay_vs_report", "ratio", "lower"},
}

// minCoverage is the share of a replay's wall clock its layers must
// account for.
const minCoverage = 0.95
