package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/partition"
)

// This file is the "huge" artifact: the n=10M scaling sweep behind the
// bit-packed label kernel + sharded hierarchical SAMPLING work (ROADMAP
// #2). It is opt-in — `experiments huge`, `make bench-huge` — and excluded
// from "all", because the top size runs for tens of seconds and allocates
// gigabytes. The committed BENCH_huge.json baseline turns the sweep into a
// benchdiff-gated regression artifact: counters (shard counts,
// representative counts, assignment tallies) are exact, the Rand-index
// quality metrics are toleranced, and total wall time is ratio-budgeted.
//
// Nothing in the sweep may touch a super-linear path: quality is measured as
// the Rand index against the planted truth (contingency-table based, O(n)).
// Disagreement is O(n·m) too, but LowerBound is quadratic in the distinct
// label rows, which grow with n on noisy inputs, so neither runs here.

// DefaultHugeSizes is the "huge" artifact's object-count ladder — the
// measured n-scaling table in docs/PERFORMANCE.md comes from exactly this
// sweep.
var DefaultHugeSizes = []int{200_000, 1_000_000, 10_000_000}

// hugeM and hugeK shape the synthetic workload: m input clusterings over k
// planted groups with 10% noise — the same recipe as the core package's
// benchProblem, sized so every label packs into the kernel's uint8 width.
const (
	hugeM = 6
	hugeK = 32
)

// HugePoint is one dataset size of the huge sweep.
type HugePoint struct {
	N int
	// Shards and Reps record the resolved tree shape: how many shards the
	// auto-sizing (or cfg.Shards) chose, and how many shard-cluster
	// representatives the final level aggregated.
	Shards int
	Reps   int
	KFound int
	// Rand is the Rand index against the planted truth — the O(n) quality
	// proxy (the objective's lower bound is quadratic in the distinct rows
	// and must never run at these sizes).
	Rand     float64
	Duration time.Duration
	// PerObject is the end-to-end time per object; flat values across the
	// ladder are the linearity claim.
	PerObject time.Duration
	// AllocBytes is the heap allocated across this point — ingest plus the
	// full sampling run, measured as a runtime TotalAlloc delta. With the
	// packed ingest path the budget is ~O(n·m) label-arena bytes, not the
	// ~8×-larger []int inputs; benchdiff ratio-gates it (n<N>:alloc_bytes).
	AllocBytes uint64
}

// HugeResult is the scaling sweep of the sharded SAMPLING pipeline.
type HugeResult struct {
	M      int
	Points []HugePoint
	// CSV, when the CSV end-to-end row ran, holds the on-disk ingest rung.
	CSV *HugeCSVPoint
}

// hugeCSVRows is the default size of the CSV end-to-end row: the ladder's
// 1M rung, measured from bytes on disk instead of an in-memory problem.
const hugeCSVRows = 1_000_000

// HugeCSVPoint is the CSV end-to-end row of the huge artifact: a planted
// CSV written to a temp file, then clustered twice — once draining the
// chunked reader (read everything, then sample) and once pipelined (8
// parsers streaming rows into the sampling tree). The two runs must produce identical labels; the gated
// facts are the deterministic ones (rows, bytes, shard count, cluster
// count, Rand index) plus the ratio-budgeted pipelined-run allocation.
// Wall times carry benchdiff-ignored suffixes: on a single-core runner the
// pipeline cannot overlap anything, so timing is recorded, not gated.
type HugeCSVPoint struct {
	N      int
	Bytes  int64
	Shards int
	KFound int
	// Rand is the Rand index against the planted truth from the class
	// column (O(n); the quadratic-in-rows lower bound must never run here).
	Rand          float64
	DrainDuration time.Duration
	PipeDuration  time.Duration
	// AllocBytes is the heap allocated across the pipelined run (TotalAlloc
	// delta); benchdiff ratio-gates it as csv:alloc_bytes.
	AllocBytes uint64
}

// hugeProblem builds the synthetic workload for one ladder size: hugeM
// noisy copies of a planted hugeK-group clustering, streamed column by
// column into a width-packed block (one reused []int scratch column; no
// []int inputs persist — at n=10M that is a 60 MB uint8 arena instead of
// ~480 MB of label slices). The per-clustering, per-object rng draw order
// is the historical one, so labels — and every counter and Rand index
// downstream — are unchanged from the pre-packed generator.
func hugeProblem(n int, seed int64) (*core.Problem, partition.Labels, error) {
	rng := rand.New(rand.NewSource(seed))
	truth := make(partition.Labels, n)
	for i := range truth {
		truth[i] = i % hugeK
	}
	b := core.NewPackedColumns(n, hugeM)
	col := make([]int, n)
	for ci := 0; ci < hugeM; ci++ {
		for i := range col {
			if rng.Float64() < 0.1 {
				col[i] = rng.Intn(hugeK + 2)
			} else {
				col[i] = i % hugeK
			}
		}
		if err := b.AppendColumn(col); err != nil {
			return nil, nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewProblemPacked(pc, core.ProblemOptions{})
	if err != nil {
		return nil, nil, err
	}
	return p, truth, nil
}

// HugeScaling runs sharded SAMPLING over FURTHEST across the size ladder
// (cfg.HugeSizes or DefaultHugeSizes) and reports the tree shape, quality,
// and per-object time at each n. cfg.Shards passes through to
// SamplingOptions.Shards — the default 0 auto-sizes, so the 200k and 1M
// rows run single-level (their telemetry has no shard counters) and the
// 10M row gets a 10-shard tree.
func HugeScaling(cfg Config) (*HugeResult, error) {
	sizes := cfg.HugeSizes
	if len(sizes) == 0 {
		sizes = DefaultHugeSizes
	}
	res := &HugeResult{M: hugeM}
	for _, n := range sizes {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocStart := ms.TotalAlloc
		problem, truth, err := hugeProblem(n, cfg.seed())
		if err != nil {
			return nil, err
		}
		rec := cfg.Recorder
		var before map[string]int64
		if rec != nil {
			before = rec.Counters() // one recorder spans the ladder; diff per point
		}
		p := HugePoint{N: n}
		p.Duration, err = timeIt(func() error {
			labels, err := problem.Sample(core.MethodFurthest,
				core.AggregateOptions{Workers: cfg.Workers, Recorder: rec, Progress: nil},
				core.SamplingOptions{
					Shards: cfg.Shards,
					Rand:   rand.New(rand.NewSource(cfg.seed())),
				})
			if err != nil {
				return err
			}
			p.KFound = labels.K()
			p.Rand, err = partition.RandIndex(labels, truth)
			return err
		})
		if err != nil {
			return nil, err
		}
		p.PerObject = p.Duration / time.Duration(n)
		runtime.ReadMemStats(&ms)
		p.AllocBytes = ms.TotalAlloc - allocStart
		if rec != nil {
			c := rec.Counters()
			p.Shards = int(c["sample.shards"] - before["sample.shards"])
			p.Reps = int(c["sample.shard.reps"] - before["sample.shard.reps"])
		}
		if p.Shards == 0 {
			p.Shards = 1 // single-level: no shard counters recorded
		}
		res.Points = append(res.Points, p)
		if !cfg.Quiet {
			fmt.Printf("  huge: n=%d done in %.2fs (shards=%d k=%d rand=%.4f alloc=%.1fMB)\n",
				n, p.Duration.Seconds(), p.Shards, p.KFound, p.Rand,
				float64(p.AllocBytes)/(1<<20))
		}
	}
	csvRows := cfg.HugeCSVRows
	if csvRows == 0 && len(cfg.HugeSizes) == 0 {
		csvRows = hugeCSVRows
	}
	if csvRows > 0 {
		p, err := hugeCSV(cfg, csvRows)
		if err != nil {
			return nil, err
		}
		res.CSV = p
		if !cfg.Quiet {
			fmt.Printf("  huge: csv n=%d done in %.2fs drain / %.2fs pipelined (shards=%d k=%d rand=%.4f alloc=%.1fMB)\n",
				p.N, p.DrainDuration.Seconds(), p.PipeDuration.Seconds(), p.Shards, p.KFound, p.Rand,
				float64(p.AllocBytes)/(1<<20))
		}
	}
	return res, nil
}

// hugeCSV runs the CSV end-to-end row: stream a planted CSV to a temp file,
// cluster it through the drain and the pipelined ingest paths, verify
// the labels agree, and measure the pipelined run's allocation. Only the
// pipelined run records into cfg.Recorder, so the artifact's ingest and
// shard counters describe one pipelined pass.
func hugeCSV(cfg Config, rows int) (*HugeCSVPoint, error) {
	f, err := os.CreateTemp("", "clusteragg-huge-*.csv")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := plantedCSVTo(bw, rows, cfg.seed()); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	p := &HugeCSVPoint{N: rows, Bytes: fi.Size()}
	sOpts := func() core.SamplingOptions {
		return core.SamplingOptions{Shards: cfg.Shards, Rand: rand.New(rand.NewSource(cfg.seed()))}
	}
	runFrom := func(fn func(io.Reader) error) error {
		in, err := os.Open(f.Name())
		if err != nil {
			return err
		}
		defer in.Close()
		return fn(bufio.NewReaderSize(in, 1<<20))
	}

	var drainLabels partition.Labels
	p.DrainDuration, err = timeIt(func() error {
		return runFrom(func(r io.Reader) (e error) {
			drainLabels, _, e = ingestDrain(r, core.AggregateOptions{Workers: cfg.Workers}, sOpts())
			return e
		})
	})
	if err != nil {
		return nil, err
	}

	rec := cfg.Recorder
	var before map[string]int64
	if rec != nil {
		before = rec.Counters()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocStart := ms.TotalAlloc
	var pipeLabels, class partition.Labels
	var pipeBytes int64
	p.PipeDuration, err = timeIt(func() error {
		return runFrom(func(r io.Reader) (e error) {
			pipeLabels, class, pipeBytes, e = ingestPipeline(r,
				core.AggregateOptions{Workers: cfg.Workers, Recorder: rec}, sOpts())
			return e
		})
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	p.AllocBytes = ms.TotalAlloc - allocStart
	rec.Add("ingest.rows", int64(rows))
	rec.Add("ingest.bytes", pipeBytes)
	if rec != nil {
		c := rec.Counters()
		p.Shards = int(c["sample.shards"] - before["sample.shards"])
	}
	if p.Shards == 0 {
		p.Shards = 1 // single-level: no shard counters recorded
	}
	if !slices.Equal(drainLabels, pipeLabels) {
		return nil, fmt.Errorf("huge: csv labels diverge between drain and pipelined ingest")
	}
	if pipeBytes != p.Bytes {
		return nil, fmt.Errorf("huge: pipelined ingest consumed %d bytes, want %d", pipeBytes, p.Bytes)
	}
	p.KFound = pipeLabels.K()
	if p.Rand, err = partition.RandIndex(pipeLabels, class); err != nil {
		return nil, err
	}
	return p, nil
}

// String prints the scaling ladder.
func (r *HugeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Huge — sharded SAMPLING scaling, m=%d inputs, packed label kernel\n", r.M)
	fmt.Fprintf(&b, "%12s %8s %6s %8s %10s %14s %10s %8s\n",
		"n", "shards", "reps", "k", "time(s)", "ns-per-object", "alloc(MB)", "RI")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%12d %8d %6d %8d %10.2f %14d %10.1f %8.4f\n",
			p.N, p.Shards, p.Reps, p.KFound, p.Duration.Seconds(), p.PerObject.Nanoseconds(),
			float64(p.AllocBytes)/(1<<20), p.Rand)
	}
	if c := r.CSV; c != nil {
		fmt.Fprintf(&b, "CSV end-to-end n=%d (%.1f MB): drain×%d %.2fs, pipelined×%d %.2fs, shards=%d, k=%d, alloc=%.1fMB, RI=%.4f\n",
			c.N, float64(c.Bytes)/(1<<20), ingestWorkersN, c.DrainDuration.Seconds(), ingestWorkersN,
			c.PipeDuration.Seconds(), c.Shards, c.KFound, float64(c.AllocBytes)/(1<<20), c.Rand)
	}
	return b.String()
}
