package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// SampleFeed pipelines packed-column ingest with sharded SAMPLING: rows are
// pushed in batches as they are parsed (e.g. from dataset.ReadCSVStream),
// packed straight into fixed-size row segments, and — under automatic
// sharding — each segment is handed to a shard consumer the moment it is
// sealed, so shard aggregation runs concurrently with the parsing of later
// rows. Because auto shard boundaries are fixed shardTarget-row segments,
// per-shard seeds are drawn in seal order (= shard order, reproducing
// Sample's pre-drawn sequence), and every shard runs the same single-
// threaded shardSample, Finish returns labels bit-identical to building the
// whole problem first and calling Problem.Sample with the same options — at
// every ingest batching, Workers, and kernel width setting.
//
// Configurations that cannot pipeline degrade gracefully to drain-then-
// compute, still bit-identical: an explicit Shards count (boundaries depend
// on the final n), inputs that never outgrow one segment, and the
// SampleSize >= n regime (where Sample aggregates exactly and never
// shards).
//
// Telemetry matches sampleSharded's — the sample.shards / sample.shard.reps
// counters and the sample.shard.k series are identical for identical
// inputs — with per-shard lane spans (sample:shard under sample:shards)
// recording each shard's wall-clock interval so ingest/compute overlap is
// visible in Chrome traces.
//
// PushRows and Finish must be called from one goroutine. A SampleFeed is
// single-use: after Finish it rejects further input.
type SampleFeed struct {
	m       int
	pOpts   ProblemOptions
	method  Method
	aggOpts AggregateOptions
	sOpts   SamplingOptions
	rec     *obs.Recorder

	pipeline bool // auto sharding: seal and aggregate segments on the fly
	rng      *rand.Rand
	rowBuf   []int

	cur     *PackedBuilder
	curRows int
	rows    int

	segs []*PackedClusterings
	outs []*feedShardOut

	span       *obs.Span // "sample", opened at the first seal
	shardsSpan *obs.Span

	sem      chan struct{}
	wg       sync.WaitGroup
	done     atomic.Int64
	finished bool
	problem  *Problem
}

type feedShardOut struct {
	reps []int
	err  error
}

// NewSampleFeed prepares a pipelined sampling run over m clusterings with
// the same options Problem.Sample takes (pOpts configures the eventual
// packed Problem exactly as NewProblemPacked would).
func NewSampleFeed(m int, pOpts ProblemOptions, method Method, aggOpts AggregateOptions, sOpts SamplingOptions) (*SampleFeed, error) {
	if m < 1 {
		return nil, ErrNoClusterings
	}
	if _, err := problemOptionsOf(m, pOpts); err != nil {
		return nil, err
	}
	if sOpts.SampleSize < 0 {
		return nil, fmt.Errorf("core: negative sample size %d", sOpts.SampleSize)
	}
	if sOpts.Shards < 0 {
		return nil, fmt.Errorf("core: negative shard count %d", sOpts.Shards)
	}
	rec := sOpts.Recorder
	if rec == nil {
		rec = aggOpts.Recorder
	}
	aggOpts.Recorder = rec // inner aggregations record into the same place
	rng := sOpts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &SampleFeed{
		m:        m,
		pOpts:    pOpts,
		method:   method,
		aggOpts:  aggOpts,
		sOpts:    sOpts,
		rec:      rec,
		pipeline: sOpts.Shards == 0,
		rng:      rng,
		rowBuf:   make([]int, m),
		sem:      make(chan struct{}, effectiveWorkers(aggOpts.Workers)),
	}, nil
}

// PushRows appends a batch of rows: cols[ci][r] is row r's label in
// clustering ci (partition.Missing for a missing cell), exactly the shape
// dataset.CSVSink delivers. The batch boundaries carry no meaning — any
// batching of the same rows produces the same result.
func (f *SampleFeed) PushRows(cols [][]int) error {
	if f.finished {
		return fmt.Errorf("core: PushRows after Finish")
	}
	if len(cols) != f.m {
		return fmt.Errorf("core: batch has %d clusterings, want %d", len(cols), f.m)
	}
	rows := len(cols[0])
	for ci := 1; ci < len(cols); ci++ {
		if len(cols[ci]) != rows {
			return fmt.Errorf("core: ragged batch: clustering %d has %d rows, want %d", ci, len(cols[ci]), rows)
		}
	}
	for r := 0; r < rows; r++ {
		if f.cur == nil {
			f.cur = NewPackedBuilder(f.m)
		} else if f.pipeline && f.curRows == shardTarget {
			// The previous segment is full AND at least one more row
			// exists, so the final shard count is ≥ 2 and Sample would
			// shard this input: sealing is safe. (A segment-sized input
			// with nothing after it must NOT seal — Sample runs it
			// single-level.)
			if err := f.seal(); err != nil {
				return err
			}
			f.cur = NewPackedBuilder(f.m)
			f.curRows = 0
		}
		for ci := range cols {
			f.rowBuf[ci] = cols[ci][r]
		}
		if err := f.cur.AppendRow(f.rowBuf); err != nil {
			return err
		}
		f.curRows++
		f.rows++
	}
	return nil
}

// seal finalizes the current fixed-size segment — exactly auto shard
// len(f.segs) — and hands it to a bounded-concurrency shard consumer. The
// shard seed is drawn here, in seal order, which is shard order: the rng
// consumption matches sampleSharded's pre-drawn seeds[i] sequence draw for
// draw. The semaphore bounds in-flight segments, so a slow consumer
// backpressures ingest instead of buffering unboundedly.
func (f *SampleFeed) seal() error {
	pc, err := f.cur.Build()
	if err != nil {
		return err
	}
	lo := len(f.segs) * shardTarget
	f.segs = append(f.segs, pc)
	if f.span == nil {
		f.span = f.rec.Start("sample")
		f.shardsSpan = f.span.StartChild("sample:shards")
	}
	seed := f.rng.Int63()
	sp, err := NewProblemPacked(pc, f.pOpts)
	if err != nil {
		return err
	}
	out := &feedShardOut{}
	f.outs = append(f.outs, out)
	shard := len(f.segs) - 1
	f.rec.Event("ingest.seal", "shard", shard, "rows", f.curRows)
	lane := f.shardsSpan.StartChild("sample:shard")
	f.wg.Add(1)
	f.sem <- struct{}{}
	go func() {
		defer f.wg.Done()
		defer func() { <-f.sem }()
		obs.Do(obs.ProfLabels{Phase: "sample:shards", Worker: strconv.Itoa(shard)}, func() {
			labels, err := shardSample(sp, f.method, f.aggOpts, f.sOpts, seed)
			if err != nil {
				out.err = err
			} else {
				out.reps = shardReps(labels, lo)
			}
		})
		lane.End()
		f.aggOpts.Progress.Emit(obs.ProgressEvent{
			Stage: "sample:shards", Done: f.done.Add(1), Total: 0, // total unknown until EOF
		})
	}()
	return nil
}

// Finish seals the trailing segment, waits for the in-flight shards, and
// completes the run: representative aggregation plus the shared
// assignment/recluster back half on the stitched whole-input problem.
// Configurations that never sealed a segment fall back to the standard
// Problem.Sample dispatcher on the whole block.
func (f *SampleFeed) Finish() (partition.Labels, error) {
	if f.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	f.finished = true
	defer f.span.End()
	if len(f.segs) == 0 {
		// Nothing was sealed: single segment, explicit shard count, or no
		// rows at all. Build the one block and dispatch normally — the rng
		// is untouched, so this is the exact non-pipelined call.
		if f.cur == nil {
			f.cur = NewPackedBuilder(f.m)
		}
		pc, err := f.cur.Build()
		if err != nil {
			return nil, err
		}
		p, err := NewProblemPacked(pc, f.pOpts)
		if err != nil {
			return nil, err
		}
		f.problem = p
		sOpts := f.sOpts
		sOpts.Rand = f.rng
		sOpts.Recorder = f.rec
		return p.Sample(f.method, f.aggOpts, sOpts)
	}
	if f.cur != nil {
		err := f.seal()
		f.cur = nil
		if err != nil {
			f.wg.Wait()
			return nil, err
		}
	}
	shards := len(f.segs)
	// Draw the representative-level rng immediately after the last shard
	// seed, matching sampleSharded's draw order.
	repRng := rand.New(rand.NewSource(f.rng.Int63()))
	f.wg.Wait()

	n := f.rows
	full := stitchPacked(f.segs, f.m)
	f.segs = nil // the stitched block owns the data now
	p, err := NewProblemPacked(full, f.pOpts)
	if err != nil {
		return nil, err
	}
	f.problem = p
	s := f.sOpts.SampleSize
	if s == 0 {
		s = autoSampleSize(n)
	}
	if s >= n {
		// Sample never shards this regime — it aggregates the whole input
		// exactly. Match it: the sealed shard results are discarded (the
		// work was wasted, but the regime implies a tiny or degenerate
		// input) and no shard telemetry is emitted.
		f.shardsSpan.End()
		return p.Aggregate(f.method, f.aggOpts)
	}

	rec := f.rec
	rec.Add("sample.shards", int64(shards))
	rec.Event("sample.shards", "shards", shards, "n", n, "auto", true)
	kSeries := rec.Series("sample.shard.k")
	var reps []int
	for i, out := range f.outs {
		if out.err != nil {
			return nil, fmt.Errorf("core: shard %d/%d: %w", i, shards, out.err)
		}
		kSeries.Append(int64(i), float64(len(out.reps)))
		reps = append(reps, out.reps...) // seal order is row order, so reps stay sorted
	}
	rec.Add("sample.shard.reps", int64(len(reps)))
	rec.Event("sample.shard.reps", "reps", len(reps), "shards", shards)
	f.shardsSpan.End()

	// Representative level + shared back half, exactly as sampleSharded.
	repSpan := rec.Start("sample:reps")
	repProblem := p.subProblem(reps)
	var repLabels partition.Labels
	if len(reps) > reclusterCap {
		repLabels, err = repProblem.Sample(f.method, f.aggOpts, SamplingOptions{
			Rand:   repRng,
			Shards: 1,
		})
	} else {
		repLabels, err = repProblem.Aggregate(f.method, withMaterialize(f.aggOpts))
	}
	repSpan.End()
	if err != nil {
		return nil, err
	}
	return p.finishSample(rec, f.method, f.aggOpts, f.sOpts, repRng, reps, repLabels)
}

// Rows returns the number of rows pushed so far.
func (f *SampleFeed) Rows() int { return f.rows }

// Problem returns the packed problem over every pushed row, for evaluating
// the labels Finish returned (Disagreement, LowerBound). Nil before a
// successful Finish.
func (f *SampleFeed) Problem() *Problem { return f.problem }
