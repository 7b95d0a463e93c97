package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"clusteragg"
	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

// workload is one named benchmark input and the user call it drives.
type workload struct {
	name string
	// minRand is the lowest Rand index against the planted truth that
	// counts as a correct result: every workload recovers its planted
	// groups far above it, so falling below means the labels are wrong.
	minRand float64
	setup   func(seed int64) instance
}

// instance is a workload's generated input, ready to run.
type instance interface {
	// objects is the number of rows or objects one call clusters.
	objects() int
	// digest fingerprints the generated input, to check that set-up is
	// deterministic.
	digest() uint64
	// run is the measured call: from the user-supplied input to labels.
	// With tr nil nothing is recorded; workers sets every worker count.
	run(tr *tracer, workers int) ([]partition.Labels, error)
	// quality returns the Rand index against the planted truth and the
	// disagreement / lower-bound ratio of the labels run returned.
	quality(out []partition.Labels) (rand, cost float64, err error)
}

// costSample is how many objects the large workloads' cost-ratio estimate
// evaluates: the ratio over all pairs of a seeded uniform subsample.
const costSample = 3000

var workloads = []workload{
	{name: "stream-2m", minRand: 0.95, setup: func(seed int64) instance {
		p := genPlanted(seed, 2_000_000, 6, 32, 0.10, 0)
		return &streamInst{p: p, csv: p.csv(), seed: seed}
	}},
	{name: "facade-16k", minRand: 0.95, setup: func(seed int64) instance {
		p := genPlanted(seed, 16_000, 6, 32, 0.10, 0.05)
		return &facadeInst{p: p, csv: p.csv(), seed: seed}
	}},
	{name: "exact-3k", minRand: 0.9, setup: func(seed int64) instance {
		p := genPlanted(seed, 3000, 8, 16, 0.25, 0)
		return &exactInst{p: p, cols: p.columns(nil)}
	}},
	{name: "recluster-200k", minRand: 0.95, setup: func(seed int64) instance {
		p := genPlanted(seed, 200_000, 6, 32, 0.10, 0)
		return &reclusterInst{p: p, cols: p.columns(nil), seed: seed}
	}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// streamInst: planted CSV bytes streamed through the chunked reader into a
// SampleFeed (FURTHEST, automatic sample size and shard count).
type streamInst struct {
	p    *planted
	csv  []byte
	seed int64
}

func (s *streamInst) objects() int   { return s.p.n }
func (s *streamInst) digest() uint64 { return fnv64(s.csv) }

func (s *streamInst) run(tr *tracer, workers int) ([]partition.Labels, error) {
	root := tr.start("stream-2m")
	defer root.end()
	feed, err := core.NewSampleFeed(s.p.m, core.ProblemOptions{}, core.MethodFurthest,
		core.AggregateOptions{Workers: workers, Recorder: tr.recorder()},
		core.SamplingOptions{Rand: rand.New(rand.NewSource(s.seed))})
	if err != nil {
		return nil, err
	}
	// The reader overlaps the feed, which opens its sample span while rows
	// still arrive and closes it in Finish. So the read span is an explicit
	// child of the root, off the recorder's span stack, and the Finish span
	// nests inside the feed's open sample span, where the representative
	// level, the assignment and the recluster then nest under it.
	read := tr.child(root, "dataset.read")
	st, err := dataset.ReadCSVStream(bytes.NewReader(s.csv),
		dataset.CSVOptions{HasHeader: true, ClassColumn: "class", Workers: workers},
		&feedSink{feed: feed, m: s.p.m, tr: tr})
	read.end()
	if err != nil {
		return nil, err
	}
	if st.Rows != s.p.n || st.Bytes != int64(len(s.csv)) {
		return nil, fmt.Errorf("read %d rows / %d bytes, want %d / %d", st.Rows, st.Bytes, s.p.n, len(s.csv))
	}
	tr.addIngest(st.Rows, st.Bytes)
	fin := tr.start("core.feed.finish")
	labels, err := feed.Finish()
	fin.end()
	if err != nil {
		return nil, err
	}
	return []partition.Labels{labels}, nil
}

func (s *streamInst) quality(out []partition.Labels) (float64, float64, error) {
	return sampledQuality(s.p, s.seed, out[0])
}

// feedSink hands each merged row batch of the CSV reader to a SampleFeed,
// timing how long the reader waits on the feed when traced.
type feedSink struct {
	feed *core.SampleFeed
	m    int
	tr   *tracer
}

func (f *feedSink) Schema(cats []string, hasClass bool) error {
	if len(cats) != f.m || !hasClass {
		return fmt.Errorf("schema has %d categorical columns (class %v), want %d and a class", len(cats), hasClass, f.m)
	}
	return nil
}

func (f *feedSink) Rows(lo, hi int, cats [][]int, class []int) error {
	if f.tr == nil {
		return f.feed.PushRows(cats)
	}
	start := time.Now()
	err := f.feed.PushRows(cats)
	f.tr.sinkWait += time.Since(start)
	return err
}

// facadeInst: the public AggregateCSV entry point exactly as the CLI calls
// it for sampled FURTHEST with pipelined ingest and one shard.
type facadeInst struct {
	p    *planted
	csv  []byte
	seed int64
	// res is the latest call's result; its objective values give the
	// cost ratio without evaluating the O(n²) objective a second time.
	res *clusteragg.CSVResult
}

func (f *facadeInst) objects() int   { return f.p.n }
func (f *facadeInst) digest() uint64 { return fnv64(f.csv) }

func (f *facadeInst) run(tr *tracer, workers int) ([]partition.Labels, error) {
	root := tr.start("facade-16k")
	defer root.end()
	call := tr.start("clusteragg.AggregateCSV")
	res, err := clusteragg.AggregateCSV(bytes.NewReader(f.csv), clusteragg.CSVOptions{
		HasHeader:     true,
		ClassColumn:   "class",
		Method:        clusteragg.MethodFurthest,
		Options:       clusteragg.AggregateOptions{Workers: workers, Recorder: tr.recorder()},
		Shards:        1,
		SampleSeed:    f.seed,
		IngestWorkers: workers,
	})
	call.end()
	if err != nil {
		return nil, err
	}
	if res.Rows != f.p.n || res.BytesRead != int64(len(f.csv)) || res.Attributes != f.p.m {
		return nil, fmt.Errorf("result has %d rows / %d bytes / %d attributes, want %d / %d / %d",
			res.Rows, res.BytesRead, res.Attributes, f.p.n, len(f.csv), f.p.m)
	}
	f.res = res
	return []partition.Labels{res.Labels}, nil
}

func (f *facadeInst) quality(out []partition.Labels) (float64, float64, error) {
	ri, err := partition.RandIndex(out[0], f.p.truth())
	if err != nil {
		return 0, 0, err
	}
	return ri, f.res.Disagreement / f.res.LowerBound, nil
}

// traceObjective times, from outside, the two O(n²) objective calls
// AggregateCSV makes after aggregating, on the same packed problem and
// labels, and checks they reproduce the facade's reported values. The
// calls run under their own root so they add nothing to the facade's
// phase shares.
func (f *facadeInst) traceObjective(tr *tracer, labels partition.Labels) error {
	b := core.NewPackedColumns(f.p.n, f.p.m)
	for _, col := range f.p.columns(nil) {
		if err := b.AppendColumn(col); err != nil {
			return err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return err
	}
	prob, err := core.NewProblemPacked(pc, core.ProblemOptions{})
	if err != nil {
		return err
	}
	root := tr.start("facade-16k:objective")
	defer root.end()
	pairs := int64(f.p.n) * int64(f.p.n-1) / 2
	sp := tr.start("core.disagreement")
	d := prob.Disagreement(labels)
	sp.end()
	sp = tr.start("core.lower_bound")
	lb := prob.LowerBound()
	sp.end()
	tr.pairs += 2 * pairs
	if d != f.res.Disagreement || lb != f.res.LowerBound {
		return fmt.Errorf("objective replay gives %v / %v, facade reported %v / %v", d, lb, f.res.Disagreement, f.res.LowerBound)
	}
	return nil
}

// exactMethods are the exact (non-sampled) methods exact-3k runs, in order.
var exactMethods = []core.Method{core.MethodLocalSearch, core.MethodAgglomerative, core.MethodBalls}

// exactInst: the unpacked []Labels constructor plus three materialized
// exact aggregations.
type exactInst struct {
	p    *planted
	cols []partition.Labels
}

func (e *exactInst) objects() int   { return e.p.n }
func (e *exactInst) digest() uint64 { return hashLabels(e.cols...) }

func (e *exactInst) run(tr *tracer, workers int) ([]partition.Labels, error) {
	root := tr.start("exact-3k")
	defer root.end()
	pk := tr.start("core.pack")
	prob, err := core.NewProblem(e.cols, core.ProblemOptions{})
	pk.end()
	if err != nil {
		return nil, err
	}
	out := make([]partition.Labels, len(exactMethods))
	for i, m := range exactMethods {
		out[i], err = prob.Aggregate(m, core.AggregateOptions{Workers: workers, Materialize: true, Recorder: tr.recorder()})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Slug(), err)
		}
	}
	return out, nil
}

// quality averages the Rand index and the cost ratio over the three
// methods, each cost ratio exact over all pairs.
func (e *exactInst) quality(out []partition.Labels) (float64, float64, error) {
	prob, err := core.NewProblem(e.cols, core.ProblemOptions{})
	if err != nil {
		return 0, 0, err
	}
	truth := e.p.truth()
	lb := prob.LowerBound()
	var ri, cost float64
	for _, labels := range out {
		r, err := partition.RandIndex(labels, truth)
		if err != nil {
			return 0, 0, err
		}
		ri += r
		cost += prob.Disagreement(labels) / lb
	}
	k := float64(len(out))
	return ri / k, cost / k, nil
}

// reclusterInst: the large-n ladder's packed route at n=200k, one
// single-level SAMPLING pass over FURTHEST.
type reclusterInst struct {
	p    *planted
	cols []partition.Labels
	seed int64
}

func (r *reclusterInst) objects() int   { return r.p.n }
func (r *reclusterInst) digest() uint64 { return hashLabels(r.cols...) }

func (r *reclusterInst) run(tr *tracer, workers int) ([]partition.Labels, error) {
	root := tr.start("recluster-200k")
	defer root.end()
	pk := tr.start("core.pack")
	b := core.NewPackedColumns(r.p.n, r.p.m)
	for _, col := range r.cols {
		if err := b.AppendColumn(col); err != nil {
			return nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblemPacked(pc, core.ProblemOptions{})
	pk.end()
	if err != nil {
		return nil, err
	}
	labels, err := prob.Sample(core.MethodFurthest,
		core.AggregateOptions{Workers: workers, Recorder: tr.recorder()},
		core.SamplingOptions{Rand: rand.New(rand.NewSource(r.seed))})
	if err != nil {
		return nil, err
	}
	return []partition.Labels{labels}, nil
}

func (r *reclusterInst) quality(out []partition.Labels) (float64, float64, error) {
	return sampledQuality(r.p, r.seed, out[0])
}

// sampledQuality is the Rand index over all objects plus the cost ratio
// over every pair of a seeded costSample-object subsample: evaluating the
// objective over all pairs is O(n²), out of reach at these sizes.
func sampledQuality(p *planted, seed int64, labels partition.Labels) (float64, float64, error) {
	ri, err := partition.RandIndex(labels, p.truth())
	if err != nil {
		return 0, 0, err
	}
	rows := subsample(seed, p.n, costSample)
	prob, err := core.NewProblem(p.columns(rows), core.ProblemOptions{})
	if err != nil {
		return 0, 0, err
	}
	sub := make(partition.Labels, len(rows))
	for j, i := range rows {
		sub[j] = labels[i]
	}
	return ri, prob.Disagreement(sub) / prob.LowerBound(), nil
}
