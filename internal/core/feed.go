package core

import (
	"fmt"
	"math/rand"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// SampleFeed pipelines packed-column ingest with sharded SAMPLING: rows are
// pushed in batches as they are parsed (e.g. from dataset.ReadCSVStream) and
// packed straight into fixed-size row segments. Under automatic sharding it
// is the streaming driver of the shard tree (see shardTree): each auto shard
// is a fixed shardTarget-row segment, added to the tree the moment it is
// sealed, so shard aggregation runs concurrently with the parsing of later
// rows, and Finish returns labels bit-identical to building the whole
// problem first and calling Problem.Sample with the same options — at every
// ingest batching, Workers, and kernel width setting.
//
// Configurations that cannot pipeline degrade gracefully to drain-then-
// compute, still bit-identical: an explicit Shards count (boundaries depend
// on the final n), inputs that never outgrow one segment, and the
// SampleSize >= n regime (where Sample aggregates exactly and never
// shards).
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

	segs     []*PackedClusterings
	tree     *shardTree // opened at the first seal
	finished bool
	problem  *Problem
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
// len(f.segs) — and adds it to the shard tree, which draws its seed in seal
// order (= shard order) and blocks while Workers shards are in flight, so
// a slow consumer backpressures ingest instead of buffering unboundedly.
func (f *SampleFeed) seal() error {
	pc, err := f.cur.Build()
	if err != nil {
		return err
	}
	lo := len(f.segs) * shardTarget
	f.segs = append(f.segs, pc)
	sp, err := NewProblemPacked(pc, f.pOpts)
	if err != nil {
		return err
	}
	if f.tree == nil {
		f.tree = openShardTree(f.method, f.aggOpts, f.sOpts, f.rng, 0) // total unknown until EOF
	}
	f.rec.Event("ingest.seal", "shard", len(f.segs)-1, "rows", f.curRows)
	f.tree.add(sp, lo)
	return nil
}

// Finish seals the trailing segment, waits for the in-flight shards, and
// finishes the shard tree on the stitched whole-input problem.
// Configurations that never sealed a segment fall back to the standard
// Problem.Sample dispatcher on the whole block.
func (f *SampleFeed) Finish() (partition.Labels, error) {
	if f.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	f.finished = true
	if f.tree == nil {
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
	defer f.tree.span.End()
	if f.cur != nil {
		err := f.seal()
		f.cur = nil
		if err != nil {
			f.tree.wait()
			return nil, err
		}
	}
	// Let the shards end before stitching, so their working memory is
	// released before the whole-input block is built.
	f.tree.wait()
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
		f.tree.shardsSpan.End()
		return p.Aggregate(f.method, f.aggOpts)
	}
	return f.tree.finish(p)
}

// Rows returns the number of rows pushed so far.
func (f *SampleFeed) Rows() int { return f.rows }

// Problem returns the packed problem over every pushed row, for evaluating
// the labels Finish returned (Disagreement, LowerBound). Nil before a
// successful Finish.
func (f *SampleFeed) Problem() *Problem { return f.problem }
