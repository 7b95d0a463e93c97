// Command clusteragg clusters categorical CSV data by clustering
// aggregation: every categorical attribute becomes an input clustering and
// the aggregate minimizing the total pairwise disagreement is computed with
// one of the paper's algorithms.
//
// Usage:
//
//	clusteragg [flags] <file.csv>
//	clusteragg analyze [flags] <report.json> [baseline.json]
//
// Reading from standard input: pass "-" as the file name.
//
// The analyze subcommand renders the convergence series recorded in a JSON
// run report (-report) as ASCII plots; with a second report it also diffs
// the two trajectories. See analyze.go for its flags.
//
// Flags:
//
//	-method NAME   best | balls | agglomerative | furthest | localsearch |
//	               pivot | anneal | bestof (default agglomerative; bestof
//	               races the paper's five and keeps the lowest disagreement)
//	-alpha F       BALLS alpha parameter (default 0.4, the value Section 4
//	               reports to work better in practice; Theorem 1's
//	               3-approximation bound needs 0.25)
//	-k N           force N clusters where the method supports it
//	-refine        post-process with LOCALSEARCH
//	-header        treat the first CSV record as column names
//	-class NAME    column holding class labels (reported, not clustered on)
//	-sample N      use SAMPLING with a sample of N rows (0 = exact)
//	-shards N      shard the objects and aggregate hierarchically (implies
//	               SAMPLING; -1 = auto-size by n, 0 = off, N = explicit
//	               shard count — see SamplingOptions.Shards)
//	-seed N        random seed for sampling (default 1; SAMPLING treats
//	               0 as 1)
//	-workers N     cap worker goroutines for the parallel stages
//	               (0 = GOMAXPROCS, 1 = sequential; results are identical
//	               for every value)
//	-ingest-workers N
//	               parse the CSV with N concurrent chunk parsers
//	               (0 = GOMAXPROCS); results are identical for every value.
//	               With -sample/-shards (and no -describe), ingest is
//	               pipelined with shard aggregation
//	-summary       print cluster sizes instead of per-row assignments
//	-describe      print each cluster's dominant attribute values
//	-trace         print a span tree and algorithm counters on stderr
//	-report FILE   write a JSON run report (schema: docs/OBSERVABILITY.md);
//	               "-" writes it to stdout
//	-tracefile F   write the span tree as Chrome trace_event JSON ("-" =
//	               stdout); load in Perfetto or chrome://tracing
//	-progress      print throttled progress events on stderr while running
//	-listen ADDR   serve /metrics (Prometheus text), /series, /runtime,
//	               /logs, the live /dashboard HTML console, and
//	               /debug/pprof on ADDR (e.g. ":9090") for the duration
//	               of the run
//	-log FORMAT    stream the structured event log to stderr as "text" or
//	               "json" lines (slog format); the retained tail also lands
//	               in the -report events section and on /logs
//	-cpuprofile F  write a pprof CPU profile of the run; spans and worker
//	               goroutines carry phase/method/worker pprof labels, so
//	               `go tool pprof -tagfocus phase=materialize` slices it
//	-memprofile F  write a pprof heap profile taken after the run
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"clusteragg"
	"clusteragg/internal/core"
	"clusteragg/internal/corrclust"
	"clusteragg/internal/dataset"
	"clusteragg/internal/eval"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// cliConfig carries the parsed flags.
type cliConfig struct {
	method        string
	alpha         float64
	k             int
	refine        bool
	header        bool
	class         string
	sample        int
	shards        int
	seed          int64
	workers       int
	ingestWorkers int
	summary       bool
	describe      bool
	trace         bool
	report        string
	tracefile     string
	progress      bool
	listen        string
	logFormat     string
	cpuprofile    string
	memprofile    string

	// traceOut receives the -trace output, progressOut the -progress
	// ticker, and logOut the -log stream; nil means os.Stderr. Tests
	// substitute buffers.
	traceOut    io.Writer
	progressOut io.Writer
	logOut      io.Writer
	// onServe, when non-nil, is called with the -listen server's bound
	// address after the aggregation finishes but while the server is still
	// up, so tests can scrape /metrics from a live run.
	onServe func(addr string)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		if err := runAnalyze(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "clusteragg analyze: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var cfg cliConfig
	flag.StringVar(&cfg.method, "method", "agglomerative", "aggregation method: best|balls|agglomerative|furthest|localsearch|pivot|anneal|bestof")
	flag.Float64Var(&cfg.alpha, "alpha", corrclust.RecommendedBallsAlpha, "BALLS alpha: the paper's experimental value 0.4 (Section 4); Theorem 1's 3-approximation bound holds at 0.25")
	flag.IntVar(&cfg.k, "k", 0, "force this many clusters where supported (0 = parameter-free)")
	flag.BoolVar(&cfg.refine, "refine", false, "post-process with LOCALSEARCH")
	flag.BoolVar(&cfg.header, "header", false, "first CSV record is a header")
	flag.StringVar(&cfg.class, "class", "", "class column name (requires -header)")
	flag.IntVar(&cfg.sample, "sample", 0, "SAMPLING sample size (0 = exact algorithm)")
	flag.IntVar(&cfg.shards, "shards", 0, "sharded hierarchical SAMPLING: shard count (-1 = auto-size by n, 0 = off)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for sampling and randomized methods")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS, 1 = sequential)")
	flag.IntVar(&cfg.ingestWorkers, "ingest-workers", 0, "concurrent CSV chunk parsers (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.summary, "summary", false, "print cluster sizes instead of assignments")
	flag.BoolVar(&cfg.describe, "describe", false, "print each cluster's dominant attribute values")
	flag.BoolVar(&cfg.trace, "trace", false, "print a span tree and algorithm counters on stderr")
	flag.StringVar(&cfg.report, "report", "", "write a JSON run report to this file (\"-\" = stdout)")
	flag.StringVar(&cfg.tracefile, "tracefile", "", "write a Chrome trace_event JSON trace to this file (\"-\" = stdout)")
	flag.BoolVar(&cfg.progress, "progress", false, "print throttled progress events on stderr")
	flag.StringVar(&cfg.listen, "listen", "", "serve /metrics, /dashboard, and /debug/pprof on this address during the run")
	flag.StringVar(&cfg.logFormat, "log", "", "stream the structured event log to stderr as \"text\" or \"json\" lines")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clusteragg [flags] <file.csv|->")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), cfg); err != nil {
		fmt.Fprintf(os.Stderr, "clusteragg: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, cfg cliConfig) error {
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var rec *obs.Recorder
	if cfg.trace || cfg.report != "" || cfg.tracefile != "" || cfg.listen != "" || cfg.logFormat != "" {
		rec = obs.New()
	}
	if cfg.logFormat != "" {
		w := cfg.logOut
		if w == nil {
			w = os.Stderr
		}
		var h slog.Handler
		switch cfg.logFormat {
		case "text":
			h = slog.NewTextHandler(w, nil)
		case "json":
			h = slog.NewJSONHandler(w, nil)
		default:
			return fmt.Errorf("-log: unknown format %q (want text or json)", cfg.logFormat)
		}
		rec.Events().Attach(h)
	}
	// CPU attribution: phase/method/worker pprof labels cost a few allocs
	// per span, so they stay off unless something will consume them — a
	// -cpuprofile, or the live /debug/pprof endpoints under -listen.
	if cfg.cpuprofile != "" || cfg.listen != "" {
		obs.EnableProfileLabels(true)
		defer obs.EnableProfileLabels(false)
	}
	var srv *obs.MetricsServer
	if cfg.listen != "" {
		var err error
		srv, err = obs.Serve(cfg.listen, rec)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics: http://%s/metrics  dashboard: http://%s/dashboard\n", srv.Addr(), srv.Addr())
	}
	// Allocation telemetry: TotalAlloc/Mallocs deltas over the whole run,
	// with the peak heap sampled from the progress ticker (and exposed live
	// on /metrics via the gauge when -listen is up). Costs two ReadMemStats
	// when no progress events fire.
	tracker := obs.StartAllocTracker(rec.Gauge("alloc.peak_heap_bytes"))
	// Runtime telemetry (nil and free when rec is): goroutines, heap, GC
	// pauses, scheduler latency, total CPU, polled from runtime/metrics. It
	// piggybacks on the progress tick like the alloc tracker; under -listen
	// a background ticker keeps /runtime and the dashboard live between
	// progress events.
	sampler := obs.NewRuntimeSampler(rec)
	if cfg.listen != "" {
		stopSampler := make(chan struct{})
		sampler.SampleEvery(250*time.Millisecond, stopSampler)
		defer close(stopSampler)
	}
	var progress *obs.Progress
	if cfg.progress {
		w := cfg.progressOut
		if w == nil {
			w = os.Stderr
		}
		progress = obs.NewProgress(func(e obs.ProgressEvent) {
			tracker.Sample()
			sampler.Sample()
			fmt.Fprintf(w, "# %s\n", e)
		}, 0)
	}
	start := time.Now()

	var in io.Reader
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	bestOf := strings.EqualFold(cfg.method, "bestof")
	var method core.Method
	var err error
	if !bestOf {
		if method, err = parseMethod(cfg.method); err != nil {
			return err
		}
	} else {
		method = core.MethodAgglomerative // used under SAMPLING for bestof
	}
	opts := core.AggregateOptions{
		BallsAlpha: core.Alpha(cfg.alpha),
		K:          cfg.k,
		Refine:     cfg.refine,
		Workers:    cfg.workers,
		Rand:       rand.New(rand.NewSource(cfg.seed)),
		Recorder:   rec,
		Progress:   progress,
	}
	methodName := cfg.method
	var labels, classLabels partition.Labels
	var tab *dataset.Table
	var n, mAttrs int
	var disagreement, lowerBound float64
	sampling := cfg.sample > 0 || cfg.shards != 0
	rec.Event("run.start", "method", cfg.method, "sampling", sampling, "workers", cfg.workers)
	if sampling && !cfg.describe {
		// Pipelined ingest: the chunked reader streams rows straight into
		// the sharded sampling tree, so shard aggregation overlaps the
		// parsing of later chunks. -describe is excluded — it needs the
		// materialized table.
		res, err := clusteragg.AggregateCSV(in, clusteragg.CSVOptions{
			HasHeader:     cfg.header,
			ClassColumn:   cfg.class,
			Method:        method,
			Options:       opts,
			SampleSize:    cfg.sample,
			Shards:        cfg.shards, // -1: auto-size by n
			SampleSeed:    cfg.seed,
			IngestWorkers: cfg.ingestWorkers,
		})
		if err != nil {
			return err
		}
		labels, classLabels = res.Labels, res.Class
		n, mAttrs = res.Rows, res.Attributes
		disagreement, lowerBound = res.Disagreement, res.LowerBound
	} else {
		loadSpan := rec.Start("load")
		tab, err = dataset.ReadCSV(in, dataset.CSVOptions{
			Name:        path,
			HasHeader:   cfg.header,
			ClassColumn: cfg.class,
			Workers:     cfg.ingestWorkers,
		})
		if err != nil {
			return err
		}
		rec.Add("ingest.rows", int64(tab.N()))
		rec.Add("ingest.bytes", tab.BytesRead)
		problem, err := tab.PackedProblem()
		loadSpan.End()
		if err != nil {
			return err
		}
		opts.Materialize = !sampling && tab.N() <= 4000

		switch {
		case sampling:
			// Seeded as CSVOptions.SampleSeed seeds the pipelined route
			// (0 = seed 1), so -describe never changes the labels.
			seed := cfg.seed
			if seed == 0 {
				seed = 1
			}
			labels, err = problem.Sample(method, opts, core.SamplingOptions{
				SampleSize: cfg.sample,
				Shards:     max(cfg.shards, 0), // -1: auto-size by n
				Rand:       rand.New(rand.NewSource(seed)),
			})
		case bestOf:
			var winner core.Method
			labels, winner, err = problem.BestOf(nil, opts)
			if err == nil {
				methodName = "bestof:" + winner.Slug()
				fmt.Printf("# bestof winner=%s\n", winner)
			}
		default:
			labels, err = problem.Aggregate(method, opts)
		}
		if err != nil {
			return err
		}

		disagreement, lowerBound = core.Evaluate(problem, labels, opts.Workers, rec)
		n, mAttrs, classLabels = tab.N(), problem.M(), tab.Class
	}
	if lowerBound > 0 {
		rec.Series("cost_over_lower_bound").Append(0, disagreement/lowerBound)
	}
	rec.Event("run.done", "n", n, "m", mAttrs, "clusters", labels.K(), "cost", disagreement)
	sampler.Sample() // final runtime poll so the report's runtime.* gauges are fresh
	fmt.Printf("# n=%d attributes=%d clusters=%d disagreement=%.0f lower-bound=%.0f\n",
		n, mAttrs, labels.K(), disagreement, lowerBound)
	if classLabels != nil {
		ec, err := eval.ClassificationError(labels, classLabels)
		if err != nil {
			return err
		}
		fmt.Printf("# classification-error=%.1f%%\n", 100*ec)
	}

	if cfg.onServe != nil && srv != nil {
		cfg.onServe(srv.Addr())
	}

	if cfg.trace {
		w := cfg.traceOut
		if w == nil {
			w = os.Stderr
		}
		if err := rec.WriteText(w); err != nil {
			return err
		}
	}
	if cfg.tracefile != "" {
		procs := []obs.TraceProcess{rec.TraceProcess("clusteragg " + methodName)}
		if err := obs.WriteTraceFileProcesses(cfg.tracefile, procs); err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
	}
	if cfg.report != "" {
		rep := obs.RunReport{
			N:          n,
			M:          mAttrs,
			Method:     methodName,
			Clusters:   labels.K(),
			Cost:       disagreement,
			LowerBound: lowerBound,
			Workers:    core.EffectiveWorkers(cfg.workers),
			WallNS:     int64(time.Since(start)),
			Alloc:      tracker.Finish(),
		}
		rep.FillFrom(rec)
		if err := obs.WriteJSON(cfg.report, rep); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if cfg.memprofile != "" {
		f, err := os.Create(cfg.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the live-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("mem profile: %w", err)
		}
	}
	if cfg.describe {
		profiles, err := dataset.Describe(tab, labels)
		if err != nil {
			return err
		}
		for _, p := range profiles {
			fmt.Printf("cluster %d: %s\n", p.Cluster, p)
		}
		return nil
	}
	if cfg.summary {
		for i, size := range labels.Sizes() {
			fmt.Printf("cluster %d: %d rows\n", i, size)
		}
		return nil
	}
	var b strings.Builder
	for i, l := range labels {
		fmt.Fprintf(&b, "%d,%d\n", i, l)
	}
	fmt.Print(b.String())
	return nil
}

func parseMethod(name string) (core.Method, error) {
	switch strings.ToLower(name) {
	case "best":
		return core.MethodBest, nil
	case "balls":
		return core.MethodBalls, nil
	case "agglomerative":
		return core.MethodAgglomerative, nil
	case "furthest":
		return core.MethodFurthest, nil
	case "localsearch":
		return core.MethodLocalSearch, nil
	case "pivot":
		return core.MethodPivot, nil
	case "anneal":
		return core.MethodAnneal, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}
