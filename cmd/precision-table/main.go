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
	"syscall"

	"dfcheck/internal/compare"
	"dfcheck/internal/factsvc"
	"dfcheck/internal/harvest"
	"dfcheck/internal/metrics"
	"dfcheck/internal/ops"
	"dfcheck/internal/rescache"
	"dfcheck/internal/trace"
)

func main() {
	c := &compare.Comparator{}
	c.RegisterFlags(flag.CommandLine)
	var (
		n         = flag.Int("n", 300, "number of generated expressions")
		seed      = flag.Int64("seed", 2020, "generator seed")
		maxInsts  = flag.Int("max-insts", 8, "max instructions per expression")
		maxWidth  = flag.Uint("max-width", 16, "largest base bit width (keep small: the oracle bit-blasts every query)")
		fragsToo  = flag.Bool("paper-fragments", true, "include the paper's §4.2–4.5 fragments in the corpus")
		loadFile  = flag.String("corpus", "", "load the corpus from this file instead of generating (see -save-corpus)")
		saveFile  = flag.String("save-corpus", "", "write the corpus to this file before running (the artifact's dump.rdb analog)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON instead of the table")
		cacheFile = flag.String("cache", "", "persist oracle results to this file across runs (the artifact's Redis dump analog)")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON span trace to this file (open in Perfetto, aggregate with trace-report)")
		traceMax  = flag.Int64("trace-max-mb", 256, "rotate the trace file when it exceeds this many MiB (0 = unbounded)")
		httpAddr  = flag.String("http", "", "serve the debug server on this address (Prometheus metrics at /metricsz, health, dashboard and slow-log endpoints, pprof at /debug/pprof/)")
		factSvc   = flag.Bool("factsvc", false, "after printing the table, serve the fact-service query API (POST /v1/facts) on the -http server until interrupted")
	)
	flag.Parse()
	if *factSvc && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "precision-table: -factsvc requires -http (the query API mounts on the debug server)")
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

	c.Tracer = tracer
	if *cacheFile != "" || *factSvc {
		// -factsvc without -cache still needs the cache, the query
		// path's one dedup; it just isn't persisted.
		cache := rescache.New()
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
		svc, err := c.NewFactService(factsvc.Config{Workers: c.Workers, SlowLog: slowLog})
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
