// precision-table regenerates the paper's Table 1: it harvests a corpus
// of expressions (a deterministic generator stands in for the SPEC CPU
// 2017 harvest, plus the paper's own fragments), runs the LLVM-port
// analyses and the solver-based oracle over every expression, and prints
// the same-precision / souper-more-precise / llvm-more-precise /
// resource-exhaustion breakdown per analysis with average CPU time.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/compare"
	"dfcheck/internal/factsvc"
	"dfcheck/internal/harvest"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/ops"
	"dfcheck/internal/rescache"
	"dfcheck/internal/trace"
)

func main() {
	var (
		n         = flag.Int("n", 300, "number of generated expressions")
		seed      = flag.Int64("seed", 2020, "generator seed")
		maxInsts  = flag.Int("max-insts", 8, "max instructions per expression")
		maxWidth  = flag.Uint("max-width", 16, "largest base bit width (keep small: the oracle bit-blasts every query)")
		budget    = flag.Int64("solver-budget", 0, "per-query conflict budget (0 = default)")
		fragsToo  = flag.Bool("paper-fragments", true, "include the paper's §4.2–4.5 fragments in the corpus")
		bug1      = flag.Bool("bug1", false, "re-introduce the r124183 isKnownNonZero bug")
		bug2      = flag.Bool("bug2", false, "re-introduce the PR23011 srem sign-bits bug")
		bug3      = flag.Bool("bug3", false, "re-introduce the PR12541 srem known-bits bug")
		modern    = flag.Bool("modern", false, "use the post-LLVM-8 compiler (the §4.8 improvements applied)")
		loadFile  = flag.String("corpus", "", "load the corpus from this file instead of generating (see -save-corpus)")
		saveFile  = flag.String("save-corpus", "", "write the corpus to this file before running (the artifact's dump.rdb analog)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON instead of the table")
		cacheFile = flag.String("cache", "", "persist oracle results to this file across runs (the artifact's Redis dump analog)")
		workers   = flag.Int("j", runtime.NumCPU(), "expressions compared concurrently")
		exprCap   = flag.Duration("expr-timeout", 5*time.Minute, "total oracle time per expression (the paper's 5-minute cap; 0 disables)")
		noStrash  = flag.Bool("no-strash", false, "ablation: disable structural hashing in the bit-blaster")
		noSeed    = flag.Bool("no-seed", false, "ablation: disable sound-fact seeding of the oracle")
		consist   = flag.Bool("consistency", true, "cross-check the compiler's own domains on every expression (solver-free reduced-product lint)")
		domsFlag  = flag.String("domains", "", "extend the consistency lint's reduced product with these transfer domains (comma-separated, e.g. tnum,stride; empty = classic four-domain lint)")
		enumCut   = flag.Int("enum-cutoff", 0, "summed input bits at or below which expressions are enumerated instead of solved (0 = default; negative disables enumeration and the SAT engine's demanded-bits sweep up to 16 input bits)")
		nwayMode  = flag.Bool("nway", false, "n-way differential mode: cross-check all analyzer variants per expression and escalate to the SAT oracle only on disagreement")
		reduceF   = flag.Bool("reduce", false, "shrink every finding to a 1-minimal reproducer preserving its finding kind (delta debugging)")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON span trace to this file (open in Perfetto, aggregate with trace-report)")
		traceMax  = flag.Int64("trace-max-mb", 256, "rotate the trace file when it exceeds this many MiB (0 = unbounded)")
		shards    = flag.Int("shards", rescache.DefaultShards, "lock stripes in the oracle result cache (rounded up to a power of two)")
		httpAddr  = flag.String("http", "", "serve the debug server on this address (Prometheus metrics at /metricsz, health, dashboard and slow-log endpoints, pprof at /debug/pprof/)")
		factSvc   = flag.Bool("factsvc", false, "after printing the table, serve the fact-service query API (POST /v1/facts) on the -http server until interrupted")
	)
	flag.Parse()

	doms, err := absint.TransferDomainsByNames(*domsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "precision-table:", err)
		os.Exit(2)
	}

	widths := []harvest.WidthWeight{{Width: 4, Weight: 10}, {Width: 8, Weight: 45}}
	if *maxWidth >= 13 {
		widths = append(widths, harvest.WidthWeight{Width: 13, Weight: 15})
	}
	if *maxWidth >= 16 {
		widths = append(widths, harvest.WidthWeight{Width: 16, Weight: 30})
	}
	var corpus []harvest.Expr
	if *loadFile != "" {
		data, err := os.Open(*loadFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "precision-table:", err)
			os.Exit(1)
		}
		corpus, err = harvest.ReadCorpus(data)
		data.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "precision-table:", err)
			os.Exit(1)
		}
	} else {
		corpus = harvest.Generate(harvest.Config{
			Seed:         *seed,
			NumExprs:     *n,
			MaxInsts:     *maxInsts,
			Widths:       widths,
			MaxCastWidth: *maxWidth,
		})
		if *fragsToo {
			for _, fr := range harvest.PaperFragments {
				corpus = append(corpus, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF(), Freq: 1})
			}
		}
	}
	if *saveFile != "" {
		out, err := os.Create(*saveFile)
		if err == nil {
			err = harvest.WriteCorpus(out, corpus)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "precision-table:", err)
			os.Exit(1)
		}
	}

	if !*asJSON {
		stats := harvest.ComputeStats(corpus)
		fmt.Println("Corpus (stand-in for the SPEC CPU 2017 harvest, §3.1):")
		fmt.Print(stats)
		fmt.Println()
	}

	var tracer *trace.Tracer
	if *traceFile != "" {
		var err error
		tracer, err = trace.NewFile(*traceFile, *traceMax<<20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "precision-table:", err)
			os.Exit(1)
		}
	}

	c := &compare.Comparator{
		Analyzer: &llvmport.Analyzer{
			Bugs:   llvmport.BugConfig{NonZeroAdd: *bug1, SRemSignBits: *bug2, SRemKnownBits: *bug3},
			Modern: *modern,
		},
		Budget:      *budget,
		Workers:     *workers,
		ExprTimeout: *exprCap,
		NoStrash:    *noStrash,
		NoSeed:      *noSeed,
		EnumCutoff:  *enumCut,
		Tracer:      tracer,
		Consistency: *consist,
		Domains:     doms,
		NWay:        *nwayMode,
		Reduce:      *reduceF,
	}
	if *cacheFile != "" || *factSvc {
		// -factsvc without -cache still needs the cache, the query
		// path's one dedup; it just isn't persisted.
		cache := rescache.NewSharded(*shards)
		if *cacheFile != "" {
			switch err := cache.LoadFile(*cacheFile); {
			case err == nil:
			case os.IsNotExist(err):
				// First run: cold start is the expected path, stay quiet.
			default:
				// A corrupt or mismatched cache file means a cold start, not a
				// failed run — but say so, since the warm-up work is lost.
				fmt.Fprintf(os.Stderr, "precision-table: WARNING: cache %s unusable, starting cold: %v\n", *cacheFile, err)
			}
		}
		c.Cache = cache
	}
	health := ops.NewHealth()
	slowLog := metrics.NewSlowLog(metrics.DefaultSlowLogSize)
	if *httpAddr != "" {
		reg := metrics.NewRegistry()
		c.Metrics = reg
		if c.Cache != nil {
			ops.CollectCache(reg, c.Cache)
		}
		(&ops.Server{Registry: reg, Health: health, Slow: slowLog}).Register(http.DefaultServeMux)
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "precision-table: metrics server:", err)
			}
		}()
	}
	rep := c.Run(corpus)
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "precision-table: WARNING: trace incomplete: %v\n", err)
		}
	}
	if c.Cache != nil {
		if *cacheFile != "" { // a -factsvc-only cache is in-memory by design
			if err := c.Cache.SaveFile(*cacheFile); err != nil {
				fmt.Fprintf(os.Stderr, "precision-table: WARNING: cache not saved: %v\n", err)
			}
		}
		// Stderr, so stdout stays byte-identical between cold and warm runs.
		fmt.Fprintln(os.Stderr, rep.CacheSummary())
	}
	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "precision-table:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	} else {
		fmt.Println("Table 1: comparing the precision of the LLVM-port dataflow analyses")
		fmt.Println("and the solver-based maximally precise algorithms.")
		fmt.Println()
		fmt.Print(rep.Table())
	}

	if *factSvc {
		// Serve fact queries against the now-warm cache until interrupted.
		if *httpAddr == "" {
			fmt.Fprintln(os.Stderr, "precision-table: -factsvc requires -http (the query API mounts on the debug server)")
			os.Exit(1)
		}
		svc, err := c.NewFactService(factsvc.Config{Workers: *workers, SlowLog: slowLog})
		if err != nil {
			fmt.Fprintln(os.Stderr, "precision-table:", err)
			os.Exit(1)
		}
		http.Handle("/v1/facts", svc.Handler())
		fmt.Fprintf(os.Stderr, "fact service: POST http://%s/v1/facts (interrupt to stop)\n", *httpAddr)
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		health.Ready() // table built, cache warm, query API mounted
		<-ctx.Done()
		health.NotReady("draining: interrupt received")
		stop()
	}

	if len(rep.Findings) > 0 {
		os.Exit(1) // soundness bugs found
	}
}
