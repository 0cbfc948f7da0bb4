// dfcheck-fuzz runs the paper's testing loop continuously: generate a
// batch of random expressions, compare the compiler-under-test's dataflow
// facts against the maximally precise oracle, report any soundness
// findings ("llvm is stronger"), and keep going with the next seed. This
// is the workflow the authors ran over Csmith- and Yarpgen-generated
// programs after exhausting SPEC (§4.7).
//
// The loop is built for long unattended runs: Ctrl-C (or SIGTERM) stops
// it cleanly mid-batch, -checkpoint persists the campaign state so
// -resume continues to the exact report an uninterrupted run would have
// produced, -events streams JSONL batch/finding records, and -metrics
// snapshots the instrument registry on exit.
//
//	dfcheck-fuzz -batches 20 -n 50
//	dfcheck-fuzz -bug3          # verify the loop catches an injected bug
//	dfcheck-fuzz -batches 0 -checkpoint state.json -events events.jsonl
//	dfcheck-fuzz -resume state.json   # continue where the kill landed
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"dfcheck/internal/campaign"
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
		batches    = flag.Int("batches", 10, "number of corpus batches to run (0 = run until interrupted)")
		n          = flag.Int("n", 50, "expressions per batch")
		seed       = flag.Int64("seed", 0, "campaign master seed (0 = draw a fresh 63-bit seed)")
		maxInsts   = flag.Int("max-insts", 6, "max instructions per expression")
		maxWidth   = flag.Uint("max-width", 16, "largest base width")
		canaries   = flag.Bool("canaries", false, "seed every batch with the §4.7 trigger expressions (verifies the loop catches injected bugs)")
		mutants    = flag.Int("mutants", 1, "mutated variants added per generated expression (Csmith-style seed mutation)")
		cacheFile  = flag.String("cache", "", "persist oracle results to this file across batches and runs (the artifact's Redis dump analog)")
		checkpoint = flag.String("checkpoint", "", "write campaign state to this file (periodically and on interrupt)")
		ckptEvery  = flag.Int("checkpoint-every", 10, "batches between periodic checkpoint saves (0 = only on interrupt/exit)")
		resume     = flag.String("resume", "", "resume the campaign from this state file (implies -checkpoint with the same file)")
		eventsFile = flag.String("events", "", "append JSONL batch and finding records to this file")
		metricsOut = flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
		httpAddr   = flag.String("http", "", "serve the debug server on this address (e.g. :8125): Prometheus metrics at /metricsz, health, dashboard and slow-log endpoints, pprof profiles at /debug/pprof/")
		shards     = flag.Int("shards", rescache.DefaultShards, "lock stripes in the oracle result cache (rounded up to a power of two)")
		factSvc    = flag.Bool("factsvc", false, "serve the fact-service query API (POST /v1/facts) on the -http server, sharing the campaign's cache and in-flight dedup")
		serveOnly  = flag.Bool("serve", false, "serve fact queries only, skipping the campaign loop, until interrupted (implies -factsvc; requires -http)")
		traceFile  = flag.String("trace", "", "write a Chrome trace-event JSON span trace to this file (open in Perfetto, aggregate with trace-report)")
		traceMaxMB = flag.Int64("trace-max-mb", 256, "rotate the trace file when it exceeds this many MiB (0 = unbounded)")
		drain      = flag.Duration("drain", 0, "after an interrupt in -serve mode, keep answering for this long with /readyz reporting 503 (load-balancer drain window)")
		slowLogN   = flag.Int("slow-log", metrics.DefaultSlowLogSize, "slowest solves retained for /slowz and /dashboardz (0 disables)")
	)
	flag.Parse()

	// Without -seed, a resumed campaign continues under the seed its
	// checkpoint records, and a new one draws a fresh 63-bit seed (a
	// 24-bit one made long campaigns revisit seeds). Campaigns are
	// reproducible from the printed value alone.
	switch {
	case *seed != 0:
	case *resume != "":
		s, err := campaign.CheckpointSeed(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfcheck-fuzz:", err)
			os.Exit(2)
		}
		*seed = s
	default:
		*seed = rand.New(rand.NewSource(time.Now().UnixNano())).Int63()
	}
	if *resume != "" && *checkpoint == "" {
		*checkpoint = *resume
	}

	widths := []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 3}}
	if *maxWidth >= 13 {
		widths = append(widths, harvest.WidthWeight{Width: 13, Weight: 1})
	}
	if *maxWidth >= 16 {
		widths = append(widths, harvest.WidthWeight{Width: 16, Weight: 2})
	}

	reg := metrics.NewRegistry()
	var slowLog *metrics.SlowLog
	if *slowLogN > 0 {
		slowLog = metrics.NewSlowLog(*slowLogN)
	}
	health := ops.NewHealth()
	if *httpAddr != "" {
		// net/http/pprof registers /debug/pprof/* on the default mux;
		// the ops endpoints (/metricsz, /healthz, /readyz, /dashboardz,
		// /eventsz, /slowz) mount beside them.
		(&ops.Server{Registry: reg, Health: health, Slow: slowLog}).Register(http.DefaultServeMux)
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dfcheck-fuzz: metrics server:", err)
			}
		}()
	}

	var tracer *trace.Tracer
	if *traceFile != "" {
		var err error
		tracer, err = trace.NewFile(*traceFile, *traceMaxMB<<20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfcheck-fuzz:", err)
			os.Exit(2)
		}
	}

	c.Metrics, c.Tracer = reg, tracer
	if *serveOnly {
		*factSvc = true
	}
	if *cacheFile != "" {
		// One cache shared across all batches: mutants and cross-batch
		// duplicates hit results memoized by earlier batches.
		cache := rescache.NewSharded(*shards)
		switch err := cache.LoadFile(*cacheFile); {
		case err == nil:
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "dfcheck-fuzz: cache %s not found, starting cold\n", *cacheFile)
		default:
			fmt.Fprintf(os.Stderr, "dfcheck-fuzz: WARNING: cache %s unusable, starting cold: %v\n", *cacheFile, err)
		}
		c.Cache = cache
	}
	if *factSvc {
		if *httpAddr == "" {
			fmt.Fprintln(os.Stderr, "dfcheck-fuzz: -factsvc requires -http (the query API mounts on the debug server)")
			os.Exit(2)
		}
		if c.Cache == nil {
			// Serving without -cache still needs the cache, the query
			// path's one dedup; it just isn't persisted.
			c.Cache = rescache.NewSharded(*shards)
		}
		svc, err := c.NewFactService(factsvc.Config{Workers: c.Workers, SlowLog: slowLog})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfcheck-fuzz:", err)
			os.Exit(2)
		}
		http.Handle("/v1/facts", svc.Handler())
	}
	if c.Cache != nil {
		ops.CollectCache(reg, c.Cache)
	}

	var events *metrics.EventLog
	if *eventsFile != "" {
		f, err := os.OpenFile(*eventsFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfcheck-fuzz:", err)
			os.Exit(2)
		}
		defer f.Close()
		events = metrics.NewEventLog(f)
	}

	camp := campaign.New(campaign.Config{
		Seed:            *seed,
		Batches:         *batches,
		NumExprs:        *n,
		MaxInsts:        *maxInsts,
		Widths:          widths,
		MaxCastWidth:    *maxWidth,
		Mutants:         *mutants,
		Canaries:        *canaries,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *ckptEvery,
		Events:          events,
		Progress:        os.Stdout,
		FactSvc:         *factSvc,
	}, c)
	if *resume != "" {
		if err := camp.Resume(*resume); err != nil {
			fmt.Fprintln(os.Stderr, "dfcheck-fuzz:", err)
			os.Exit(2)
		}
		fmt.Printf("resumed from %s: %d batches done, continuing at batch %d\n",
			*resume, camp.Totals.Batches, camp.NextBatch)
	}
	fmt.Printf("campaign seed %d (reproduce with -seed %d)\n", *seed, *seed)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Cache loaded and (in serve mode) the query API mounted: the
	// process can answer queries, so /readyz flips to 200.
	health.Ready()
	var runErr error
	if *serveOnly {
		// Serve-only mode: no campaign, just answer fact queries until
		// interrupted. Interruption is the normal shutdown, not an error.
		fmt.Printf("fact service: POST http://%s/v1/facts (interrupt to stop)\n", *httpAddr)
		<-ctx.Done()
		// Drain window: /readyz reports 503 so load balancers stop
		// routing here, while in-flight and late queries still answer.
		health.NotReady("draining: interrupt received")
		if *drain > 0 {
			fmt.Fprintf(os.Stderr, "draining for %v before shutdown\n", *drain)
			time.Sleep(*drain)
		}
	} else {
		runErr = camp.Run(ctx)
		health.NotReady("campaign finished")
	}
	stop() // a second Ctrl-C past this point kills the process normally

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dfcheck-fuzz: WARNING: trace incomplete: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "trace written to %s (%d rotation(s)); inspect with: trace-report %s\n",
				*traceFile, tracer.Rotations(), *traceFile)
		}
	}

	if c.Cache != nil {
		if *cacheFile != "" { // a -factsvc-only cache is in-memory by design
			if err := c.Cache.SaveFile(*cacheFile); err != nil {
				fmt.Fprintf(os.Stderr, "dfcheck-fuzz: WARNING: cache not saved: %v\n", err)
			}
		}
		st := c.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%.1f%% hit rate), %d entries\n",
			st.Hits, st.Misses, 100*st.HitRate(), c.Cache.Len())
	}
	if *metricsOut != "" {
		if data, err := reg.JSON(); err == nil {
			if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dfcheck-fuzz: WARNING: metrics not saved: %v\n", err)
			}
		}
	}
	if events != nil {
		if err := events.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "dfcheck-fuzz: WARNING: event log incomplete: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "metrics:", reg.String())

	if nw := camp.Totals.NWay; nw != nil {
		// One stable line for scripts (CI asserts escalations stay below
		// comparisons, i.e. the pre-filter actually filters).
		fmt.Printf("\nnway: %d exprs (%d agreed, %d escalated, %d dead); %d comparisons, %d disagreements, %d contradictions\n",
			nw.Exprs, nw.Agreed, nw.Escalated, nw.Dead, nw.Comparisons, nw.Disagreements, nw.Contradictions)
	}
	fmt.Printf("\ntotal: %d batches, %d expressions, %d soundness findings\n",
		camp.Totals.Batches, camp.Totals.Exprs, len(camp.Totals.Findings))
	if runErr != nil {
		if *checkpoint != "" {
			fmt.Printf("interrupted; resume with: dfcheck-fuzz -resume %s <same flags>\n", *checkpoint)
		} else {
			fmt.Println("interrupted (no -checkpoint file; this campaign cannot be resumed)")
		}
	}
	if len(camp.Totals.Findings) > 0 {
		os.Exit(1)
	}
	if runErr != nil {
		os.Exit(130)
	}
}
