package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// assignBatchSize is the number of objects one batch of the assignment's
// scatter covers: each batch advances the shared progress counter once, so
// the instrumentation cost is amortized across thousands of objects.
const assignBatchSize = 8192

// reclusterCap bounds the subsets the sampling post-passes aggregate
// exactly (materialized): the singleton recluster and the sharded tree's
// representative level both fall back to a recursive single-level Sample
// past it, keeping the whole pipeline near-linear.
const reclusterCap = 4096

// SamplingOptions configures the SAMPLING wrapper of Section 4.1.
type SamplingOptions struct {
	// SampleSize is the number of objects clustered exactly. Zero selects
	// an automatic size of ceil(20·ln n) (a constant multiple of the
	// O(log n) the paper derives from Chernoff bounds), capped at n.
	SampleSize int
	// Shards generalizes SAMPLING's one-level shape into a two-level tree
	// for very large n: objects are partitioned into contiguous shards,
	// each shard is aggregated independently by a full SAMPLING pass on the
	// non-materialized kernel path (in parallel over the Workers pool,
	// deterministically seeded), the shard cluster representatives are
	// aggregated once more, and every object is routed through the final
	// histogram assignment against the representative clusters.
	//
	// Zero selects an automatic shard count of ceil(n / 2^20) — so inputs
	// up to ~1M objects keep the classic single-level pass, and larger ones
	// get ~1M-object shards. Auto shards are fixed-size 2^20-row segments
	// (remainder in the last shard), so shard i's boundaries are known
	// before n is — the property that lets SampleFeed aggregate a shard
	// while later rows are still being ingested. One forces single-level
	// sampling at any n. Explicit counts keep the balanced i*n/shards split
	// and are clamped to n/2 so every shard holds at least two objects;
	// negative values are an error. For a fixed shard count the result is
	// bit-identical across Workers settings and kernel widths; different
	// shard counts build different trees and generally produce (comparably
	// good) different clusterings.
	Shards int
	// Rand is the randomness source for drawing the sample. Nil means a
	// deterministic source seeded with 1.
	Rand *rand.Rand
	// NoSingletonRecluster disables the post-processing round that gathers
	// all singleton clusters and aggregates them again (enabled by default,
	// as in the paper).
	NoSingletonRecluster bool
	// Recorder, when non-nil, receives the sampling spans (sample:core,
	// sample:assign, sample:recluster) and sample.* counters, splitting the
	// exact-core work from the linear assignment pass. Nil falls back to
	// the AggregateOptions' Recorder; results never depend on it.
	Recorder *obs.Recorder
}

// Sample runs the SAMPLING algorithm on top of the given aggregation method:
// it aggregates a uniform random sample exactly, assigns every remaining
// object to the sampled cluster (or to a fresh singleton) that minimizes the
// LOCALSEARCH assignment cost, and finally gathers all singleton clusters
// and aggregates them again. Pre- and post-processing are linear in n for a
// fixed sample size.
func (p *Problem) Sample(method Method, aggOpts AggregateOptions, sOpts SamplingOptions) (partition.Labels, error) {
	rec := sOpts.Recorder
	if rec == nil {
		rec = aggOpts.Recorder
	}
	aggOpts.Recorder = rec // inner aggregations record into the same place
	n := p.n
	s := sOpts.SampleSize
	if s == 0 {
		s = autoSampleSize(n)
	}
	if s < 0 {
		return nil, fmt.Errorf("core: negative sample size %d", s)
	}
	if sOpts.Shards < 0 {
		return nil, fmt.Errorf("core: negative shard count %d", sOpts.Shards)
	}
	if s >= n {
		return p.Aggregate(method, aggOpts)
	}
	rng := sOpts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if shards := resolveShards(sOpts.Shards, n); shards > 1 {
		return p.sampleSharded(method, aggOpts, sOpts, rng, shards)
	}
	span := rec.Start("sample")
	defer span.End()
	rec.Add("sample.size", int64(s))
	rec.Event("sample.plan", "size", s, "n", n, "auto", sOpts.SampleSize == 0)

	sample := rng.Perm(n)[:s]
	sort.Ints(sample)

	coreSpan := rec.Start("sample:core")
	sampleLabels, err := p.subProblem(sample).Aggregate(method, withMaterialize(aggOpts))
	coreSpan.End()
	if err != nil {
		return nil, err
	}
	return p.finishSample(rec, method, aggOpts, sOpts, rng, sample, sampleLabels)
}

// finishSample is the shared back half of both sampling shapes: given the
// exactly-aggregated sample (original object indices plus their normalized
// cluster labels), it assigns every remaining object, re-aggregates
// singletons, and normalizes. rng seeds the recursive Sample inside the
// singleton recluster.
func (p *Problem) finishSample(rec *obs.Recorder, method Method, aggOpts AggregateOptions, sOpts SamplingOptions, rng *rand.Rand, sample []int, sampleLabels partition.Labels) (partition.Labels, error) {
	n, s := p.n, len(sample)

	// Clusters of the sample, holding original object indices.
	k := sampleLabels.K()
	members := make([][]int, k)
	for si, c := range sampleLabels {
		members[c] = append(members[c], sample[si])
	}

	labels := make(partition.Labels, n)
	for i := range labels {
		labels[i] = partition.Missing
	}
	for si, c := range sampleLabels {
		labels[sample[si]] = c
	}

	// Assignment phase: place each non-sampled object into the sampled
	// cluster minimizing d(v, C_i) = M(v,C_i) + Σ_{j≠i}(|C_j| − M(v,C_j)),
	// or into a fresh singleton when that is cheaper — the LOCALSEARCH
	// assignment cost; the refinement passes inside the exact core and the
	// singleton recluster run the incremental LOCALSEARCH kernel with the
	// same aggOpts.Workers cap (see corrclust.LocalSearch). The cost depends
	// on v only through its label row, so the pass scores each distinct
	// non-sample row once — O(m·k) through the columnar label kernel's
	// co-label histograms (see labelkernel.go) — and copies the decision to
	// every object carrying the row, on worker stripes capped by
	// aggOpts.Workers. A fresh singleton takes the provisional label k+v,
	// unique per object regardless of scheduling, and the final Normalize
	// maps every worker count's labeling to the same clustering. Memory is
	// O(d + m·L·k) for d distinct rows on top of labels; nothing is O(n²).
	//
	// Sample membership needs no side table: labels was initialized to
	// Missing everywhere and then set exactly on the sample positions, so
	// labels[v] != Missing identifies the sample — one fewer O(n)
	// allocation; the pass also parks each object's row id in its own slot.
	assignSpan := rec.Start("sample:assign")
	workers := min(effectiveWorkers(aggOpts.Workers), n)
	if n-s < materializeMinParallel {
		workers = 1
	}
	assigned, fresh := p.assignKernel(rec, aggOpts.Progress, labels, members, workers)
	rec.Add("sample.assigned", assigned)
	rec.Add("sample.fresh_singletons", fresh)
	// Completion event (always delivered): every object has been scanned.
	aggOpts.Progress.Emit(obs.ProgressEvent{Stage: "sample:assign", Done: int64(n), Total: int64(n)})
	assignSpan.End()

	if !sOpts.NoSingletonRecluster {
		rs := rec.Start("sample:recluster")
		err := p.reclusterSingletons(labels, method, aggOpts, rng)
		rs.End()
		if err != nil {
			return nil, err
		}
	}
	return labels.Normalize(), nil
}

// assignKernel is the assignment pass. An object's cost of joining sample
// cluster C_c, or a fresh singleton, depends on the object only through its
// packed label row, so the pass decides once per distinct row, in three
// phases over the non-sample objects (labels[v] == Missing):
//
//  1. Index: indexRows gives every distinct row an id in first-appearance
//     order, keeps the row's first object as its exemplar, and parks each
//     object's id in its own labels slot (parkID), so nothing sized by n is
//     allocated.
//  2. Decide: each id is scored once, from its exemplar, in fixed
//     decideBlock-id blocks on parallelFor. The default route evaluates
//     M(v, C_c) for all k sample clusters through the co-label histograms
//     in one O(m·k) pass; under MissingAverage with missing labels present
//     — where per-pair vote denominators do not decompose per clustering —
//     it evaluates the sample members through the kernel's bulk row path
//     instead (O(m·s), tight label compares, bit-identical to per-pair
//     probing unconditionally). Both read only the exemplar's row (and its
//     missing flag, a function of the row), and an exemplar is never a
//     sample object, so the row route's u == v zero never fires: every
//     object gets exactly the decision its own scoring would give.
//  3. Scatter: objects stream on contiguous chunk stripes and take their
//     row's decision; a fresh singleton takes the provisional label k+v.
//
// The tests pin this pass against a probing reference (assignReference in
// oracle_test.go) on identical inputs.
//
// Counters: sample.assign.rows_decided counts the distinct rows scored
// (worker-independent: the index is built on one goroutine);
// sample.assign.kernel_cols records the n packed label columns and
// sample.assign.hist_builds the per-clustering histogram builds (0 on the
// row route). The shared progress counter ticks once per scatter batch
// (Done = objects scattered so far across all stripes, Total = n).
func (p *Problem) assignKernel(rec *obs.Recorder, progress *obs.Progress, labels partition.Labels, members [][]int, workers int) (assigned, fresh int64) {
	n, k := p.n, len(members)
	lk := p.kernel()
	rec.Add("sample.assign.kernel_cols", int64(n))

	var hist *colabelHist
	var flat []int // row route: sample members flattened in cluster order
	var ends []int // per-cluster segment ends into flat
	if lk.average && lk.anyMiss {
		for _, mem := range members {
			flat = append(flat, mem...)
			ends = append(ends, len(flat))
		}
		rec.Add("sample.assign.hist_builds", 0)
	} else {
		hist = lk.buildColabelHist(members)
		rec.Add("sample.assign.hist_builds", int64(lk.m))
	}

	// decision[id] starts as the id's exemplar object and is overwritten
	// with its decision: a sample cluster, or −1 for a fresh singleton.
	decision := lk.indexRows(labels)
	d := len(decision)
	rec.Add("sample.assign.rows_decided", int64(d))
	parallelFor((d+decideBlock-1)/decideBlock, workers, "sample:assign", func(blk int) {
		affPtr, aff := getF64(k)
		defer putF64(affPtr)
		var buf []float64
		if hist == nil {
			bufPtr, b := getF64(len(flat))
			defer putF64(bufPtr)
			buf = b
		}
		for id := blk * decideBlock; id < min((blk+1)*decideBlock, d); id++ {
			v := int(decision[id])
			if hist != nil {
				hist.affinities(lk, v, aff)
			} else {
				lk.DistRowTo(v, flat, buf)
				start := 0
				for ci, end := range ends {
					var s float64
					for _, x := range buf[start:end] {
						s += x
					}
					aff[ci] = s
					start = end
				}
			}
			var totalAway float64
			for ci := range members {
				totalAway += float64(len(members[ci])) - aff[ci]
			}
			bestC, bestCost := -1, totalAway // -1 = fresh singleton
			for ci := range members {
				c := aff[ci] + totalAway - (float64(len(members[ci])) - aff[ci])
				if c < bestCost {
					bestC, bestCost = ci, c
				}
			}
			decision[id] = int32(bestC)
		}
	})

	var done atomic.Int64
	chunk := (n + workers - 1) / workers
	counts := make([][2]int64, workers) // assigned, fresh per stripe
	parallelFor((n+chunk-1)/chunk, workers, "sample:assign", func(stripe int) {
		for lo, hi := stripe*chunk, min((stripe+1)*chunk, n); lo < hi; lo += assignBatchSize {
			bHi := min(lo+assignBatchSize, hi)
			for v := lo; v < bHi; v++ {
				if labels[v] >= 0 { // sample object
					continue
				}
				if c := decision[parkedID(labels[v])]; c < 0 {
					labels[v] = k + v
					counts[stripe][1]++
				} else {
					labels[v] = int(c)
					counts[stripe][0]++
				}
			}
			progress.Emit(obs.ProgressEvent{
				Stage: "sample:assign", Done: done.Add(int64(bHi - lo)), Total: int64(n),
			})
		}
	})
	for _, c := range counts {
		assigned += c[0]
		fresh += c[1]
	}
	return assigned, fresh
}

// decideBlock is the number of row ids one parallelFor unit of the
// assignment's decide phase scores.
const decideBlock = 256

// parkID encodes a row id in a labels slot between the assignment's index
// and scatter phases: −(id+2) stays clear of every cluster label (≥ 0) and
// of Missing (−1). parkedID decodes it.
func parkID(id int) int  { return -id - 2 }
func parkedID(c int) int { return -c - 2 }

// indexRows gives the packed label row of every object with labels[v] ==
// Missing an id, in first-appearance order, parks the id in labels[v]
// (parkID), and returns each id's exemplar: the first object carrying the
// row. Rows are found in one open-addressed table of int32 slots (id+1, 0
// empty) kept at most half full, compared by content at every width, so
// the index costs O(d) memory for d distinct rows and expected O(m) time
// per object. It runs on one goroutine, so ids never depend on workers.
func (lk *labelKernel) indexRows(labels partition.Labels) []int32 {
	switch lk.width {
	case width8:
		return indexRowsW(lk.lab8, lk.m, labels)
	case width16:
		return indexRowsW(lk.lab16, lk.m, labels)
	default:
		return indexRowsW(lk.lab32, lk.m, labels)
	}
}

// indexRowsW is the width-specialized indexRows.
func indexRowsW[W labelWord](lab []W, m int, labels partition.Labels) []int32 {
	row := func(v int) []W { return lab[v*m : v*m+m] }
	slots := make([]int32, 256)
	exemplars := make([]int32, 0, len(slots)/2)
	for v, c := range labels {
		if c != partition.Missing {
			continue
		}
		r := row(v)
		mask := len(slots) - 1
		i, id := int(hashRow(r))&mask, -1
		for ; slots[i] != 0; i = (i + 1) & mask {
			if e := slots[i] - 1; slices.Equal(row(int(exemplars[e])), r) {
				id = int(e)
				break
			}
		}
		if id < 0 {
			id = len(exemplars)
			slots[i] = int32(id + 1)
			exemplars = append(exemplars, int32(v))
			if 2*len(exemplars) > len(slots) {
				// Double the table; the exemplars' capacity follows it,
				// so every slice the index allocates is sized by d.
				slots = make([]int32, 2*len(slots))
				mask = len(slots) - 1
				for e, u := range exemplars {
					j := int(hashRow(row(int(u)))) & mask
					for slots[j] != 0 {
						j = (j + 1) & mask
					}
					slots[j] = int32(e + 1)
				}
				exemplars = append(make([]int32, 0, len(slots)/2), exemplars...)
			}
		}
		labels[v] = parkID(id)
	}
	return exemplars
}

// hashRow hashes one packed label row: FNV-1a over the labels, then a
// 64-bit finalizer so the low bits the table masks by mix every label.
func hashRow[W labelWord](r []W) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range r {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// shardTarget is the auto-sizing granularity for SamplingOptions.Shards:
// with Shards == 0, the shard count is ceil(n / shardTarget) and shard i is
// the fixed row range [i·shardTarget, min((i+1)·shardTarget, n)), so
// sharding engages only past ~1M objects and each shard's boundaries are
// independent of n. The value depends only on n — never on GOMAXPROCS or
// Workers — so auto shard counts (and every counter derived from them) are
// machine- and worker-count-independent. It is a variable only so tests can
// shrink it to exercise the sharded and pipelined paths at test-sized n;
// keep it ≥ 4 so resolveShards' n/2 clamp can never disagree with the
// fixed-size segmentation (for target T ≥ 4 and n > T, ceil(n/T) ≤ n/2).
var shardTarget = 1 << 20

// SetShardTarget overrides the auto-shard segment size and returns a
// restore func. It exists so tests outside this package (facade, CLI) and
// the experiments "ingest" artifact can exercise the sharded and pipelined
// paths at reduced n; keep targets ≥ 8 per the shardTarget invariant, and
// never call it on a production serving path.
func SetShardTarget(target int) (restore func()) {
	old := shardTarget
	shardTarget = target
	return func() { shardTarget = old }
}

// shardRange returns shard i's contiguous object range. Auto-sized shards
// (requested count 0) are fixed shardTarget-row segments with the remainder
// in the last shard; explicit counts keep the balanced i*n/shards split.
func shardRange(i, n, shards int, auto bool) (lo, hi int) {
	if auto {
		lo = i * shardTarget
		return lo, min(lo+shardTarget, n)
	}
	return i * n / shards, (i + 1) * n / shards
}

// shardSample aggregates one shard subproblem: a full single-level Sample,
// single-threaded (parallelism lives across shards) and unrecorded (its
// scheduling is nondeterministic), seeded from the shard's seed, so a
// shard's labels depend only on its rows and seed.
func shardSample(sp *Problem, method Method, aggOpts AggregateOptions, sOpts SamplingOptions, seed int64) (partition.Labels, error) {
	inner := aggOpts
	inner.Workers = 1
	inner.Recorder = nil
	inner.Progress = nil
	return sp.Sample(method, inner, SamplingOptions{
		SampleSize: sOpts.SampleSize,
		Rand:       rand.New(rand.NewSource(seed)),
		Shards:     1,
	})
}

// shardReps extracts a shard's representatives from its normalized labels:
// the first member of every non-singleton cluster, offset by the shard's
// global base row lo (all firsts when every cluster is a singleton, so the
// representative set never comes up empty). labels is normalized, so
// cluster c's first occurrence appears before cluster c+1's and the
// representatives come out ascending.
func shardReps(labels partition.Labels, lo int) []int {
	firsts := make([]int, 0, labels.K())
	for j, c := range labels {
		if c == len(firsts) {
			firsts = append(firsts, lo+j)
		}
	}
	sizes := make([]int, len(firsts))
	for _, c := range labels {
		sizes[c]++
	}
	reps := make([]int, 0, len(firsts))
	for c, f := range firsts {
		if sizes[c] > 1 {
			reps = append(reps, f)
		}
	}
	if len(reps) == 0 {
		reps = firsts
	}
	return reps
}

// resolveShards maps the requested shard count to the effective one: 0
// auto-sizes by n, explicit counts are clamped so every contiguous shard
// holds at least two objects. Negative counts were rejected earlier.
func resolveShards(requested, n int) int {
	s := requested
	if s == 0 {
		s = (n + shardTarget - 1) / shardTarget
	}
	if s > n/2 {
		s = n / 2
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardTree is the two-level SAMPLING tree (SamplingOptions.Shards), the one
// engine behind both sharded drivers: Problem.sampleSharded adds zero-copy
// range views of an in-memory problem, and SampleFeed adds each fixed-size
// segment the moment ingest seals it. The tree
//
//  1. aggregates each shard independently with shardSample — a full
//     single-level Sample on the non-materialized kernel path,
//     single-threaded and unrecorded, seeded from a seed drawn from the
//     caller's rng in shard order. Shards run on goroutines bounded by a
//     Workers-sized semaphore, which also backpressures a streaming
//     producer;
//  2. sends up the first member of each non-singleton shard cluster as its
//     representative (shardReps). A shard-level singleton is an object the
//     shard could not cluster: promoting every one would grow the
//     representative set, and the O(m·k)-per-distinct-row cost of the
//     final assignment, with the noise rate. Such objects are not lost —
//     they re-enter at the final assignment like every other non-sample
//     object and fall to the singleton recluster if they still fit
//     nowhere;
//  3. aggregates the representatives with an rng drawn right after the
//     last shard seed: exactly when they fit the materialized core
//     (reclusterCap), by a recursive single-level Sample otherwise;
//  4. routes every object through the shared assignment/recluster back
//     half (finishSample) against the representative clusters.
//
// A shard's labels depend only on its rows and seed, and both drivers
// consume the rng in the same order, so the result is bit-identical for
// every driver, Workers setting, ingest batching and kernel width.
//
// Telemetry: a sample span holding sample:shards (one sample:shard lane per
// shard, recording its wall-clock interval so ingest/compute overlap shows
// in Chrome traces) and sample:reps; one sample:shards progress tick per
// completed shard (Total = shard count, or 0 while streaming); and, once
// every shard has ended, in shard order so reports are deterministic, the
// sample.shards and sample.shard.reps counters and events and the
// sample.shard.k series (representatives per shard).
type shardTree struct {
	method  Method
	aggOpts AggregateOptions
	sOpts   SamplingOptions
	rng     *rand.Rand
	total   int64 // progress Total: the shard count, 0 while streaming

	span, shardsSpan *obs.Span
	sem              chan struct{}
	wg               sync.WaitGroup
	done             atomic.Int64
	outs             []*shardOut
	repRng           *rand.Rand // drawn by wait
}

// shardOut is one shard's result: its representatives (global object
// indices, ascending) or its error.
type shardOut struct {
	reps []int
	err  error
}

// openShardTree starts the sample and sample:shards spans on
// aggOpts.Recorder and sizes the shard semaphore by aggOpts.Workers.
func openShardTree(method Method, aggOpts AggregateOptions, sOpts SamplingOptions, rng *rand.Rand, total int) *shardTree {
	t := &shardTree{method: method, aggOpts: aggOpts, sOpts: sOpts, rng: rng, total: int64(total)}
	t.span = aggOpts.Recorder.Start("sample")
	t.shardsSpan = t.span.StartChild("sample:shards")
	t.sem = make(chan struct{}, effectiveWorkers(aggOpts.Workers))
	return t
}

// add draws the next shard's seed and aggregates sp, whose first row is
// global object lo, on a goroutine once the semaphore admits it. Shards
// must be added in row order.
func (t *shardTree) add(sp *Problem, lo int) {
	seed := t.rng.Int63()
	out := &shardOut{}
	t.outs = append(t.outs, out)
	shard := len(t.outs) - 1
	lane := t.shardsSpan.StartChild("sample:shard")
	t.wg.Add(1)
	t.sem <- struct{}{}
	go func() {
		defer t.wg.Done()
		defer func() { <-t.sem }()
		obs.Do(obs.ProfLabels{Phase: "sample:shards", Worker: strconv.Itoa(shard)}, func() {
			labels, err := shardSample(sp, t.method, t.aggOpts, t.sOpts, seed)
			if err != nil {
				out.err = err
			} else {
				out.reps = shardReps(labels, lo)
			}
		})
		lane.End()
		t.aggOpts.Progress.Emit(obs.ProgressEvent{
			Stage: "sample:shards", Done: t.done.Add(1), Total: t.total,
		})
	}()
}

// wait draws the representative-level rng, right after the last shard
// seed, and blocks until every added shard has ended. A second call only
// waits.
func (t *shardTree) wait() {
	if t.repRng == nil {
		t.repRng = rand.New(rand.NewSource(t.rng.Int63()))
	}
	t.wg.Wait()
}

// finish waits for the shards and completes the tree on p, the problem over
// the rows of every shard, ending the sample span. The first failed shard,
// in shard order, fails the run.
func (t *shardTree) finish(p *Problem) (partition.Labels, error) {
	defer t.span.End()
	t.wait()
	rec, shards := t.aggOpts.Recorder, len(t.outs)
	rec.Add("sample.shards", int64(shards))
	// Auto-sizing decision, narrated: requested 0 means the count came from
	// the fixed shardTarget segmentation.
	rec.Event("sample.shards", "shards", shards, "n", p.n, "auto", t.sOpts.Shards == 0)
	kSeries := rec.Series("sample.shard.k")
	var reps []int
	for i, out := range t.outs {
		if out.err != nil {
			return nil, fmt.Errorf("core: shard %d/%d: %w", i, shards, out.err)
		}
		kSeries.Append(int64(i), float64(len(out.reps)))
		reps = append(reps, out.reps...) // shards come in row order, so reps stay sorted
	}
	rec.Add("sample.shard.reps", int64(len(reps)))
	rec.Event("sample.shard.reps", "reps", len(reps), "shards", shards)
	t.shardsSpan.End()

	repSpan := rec.Start("sample:reps")
	repProblem := p.subProblem(reps)
	var repLabels partition.Labels
	var err error
	if len(reps) > reclusterCap {
		repLabels, err = repProblem.Sample(t.method, t.aggOpts, SamplingOptions{
			Rand:   t.repRng,
			Shards: 1,
		})
	} else {
		repLabels, err = repProblem.Aggregate(t.method, withMaterialize(t.aggOpts))
	}
	repSpan.End()
	if err != nil {
		return nil, err
	}
	return p.finishSample(rec, t.method, t.aggOpts, t.sOpts, t.repRng, reps, repLabels)
}

// sampleSharded is the in-memory driver of the shard tree: its shards are
// range views of p (subProblemRange), so a shard costs a Problem header,
// not a copy of its share of the inputs.
func (p *Problem) sampleSharded(method Method, aggOpts AggregateOptions, sOpts SamplingOptions, rng *rand.Rand, shards int) (partition.Labels, error) {
	t := openShardTree(method, aggOpts, sOpts, rng, shards)
	for i := 0; i < shards; i++ {
		lo, hi := shardRange(i, p.n, shards, sOpts.Shards == 0)
		t.add(p.subProblemRange(lo, hi), lo)
	}
	return t.finish(p)
}

// autoSampleSize returns ceil(20·ln n), clamped to [1, n].
func autoSampleSize(n int) int {
	if n <= 1 {
		return n
	}
	s := int(math.Ceil(20 * math.Log(float64(n))))
	if s > n {
		s = n
	}
	return s
}

// withMaterialize forces matrix materialization, which is always worthwhile
// on a small sample.
func withMaterialize(o AggregateOptions) AggregateOptions {
	o.Materialize = true
	return o
}

// withPacked returns a Problem over pc sharing p's option-derived fields.
func (p *Problem) withPacked(pc *PackedClusterings) *Problem {
	return &Problem{
		n:           pc.n,
		missingP:    p.missingP,
		missingMode: p.missingMode,
		weights:     p.weights,
		totalWeight: p.totalWeight,
		packed:      pc,
	}
}

// subProblem restricts the inputs to the given (sorted) object indices,
// gathering the selected label rows into one fresh arena at the parent's
// width (m·width bytes per object).
func (p *Problem) subProblem(idx []int) *Problem {
	return p.withPacked(p.packed.gather(idx))
}

// subProblemRange restricts the inputs to the contiguous object range
// [lo, hi) without copying any labels: the subproblem aliases a view of the
// packed block. Sub-kernels built from a view share the parent's
// per-clustering label bounds; a looser bound only adds all-zero co-label
// histogram rows, which change no float arithmetic, so results are
// bit-identical to the copying subProblem over the same range
// (TestSubProblemRangeAliases pins both the aliasing and the equivalence).
func (p *Problem) subProblemRange(lo, hi int) *Problem {
	return p.withPacked(p.packed.view(lo, hi))
}

// reclusterSingletons gathers every object currently in a singleton cluster
// and aggregates that subset again, splicing the result back into labels.
// Very large singleton sets are handled by a recursive Sample call so the
// post-processing stays near-linear.
func (p *Problem) reclusterSingletons(labels partition.Labels, method Method, aggOpts AggregateOptions, rng *rand.Rand) error {
	// Every object carries a label here (provisional singletons got k+v), so
	// cluster sizes fit a flat array indexed by label — one bound scan plus
	// 4 bytes per provisional label, instead of the map[int]int whose
	// buckets dominated this pass's allocations at large n. The bound
	// doubles as the splice base below.
	base := 0
	for _, c := range labels {
		if c >= base {
			base = c + 1
		}
	}
	counts := make([]int32, base)
	for _, c := range labels {
		counts[c]++
	}
	nSingle := 0
	for _, c := range counts {
		if c == 1 {
			nSingle++
		}
	}
	if nSingle < 2 {
		return nil
	}
	singles := make([]int, 0, nSingle)
	for i, c := range labels {
		if counts[c] == 1 {
			singles = append(singles, i)
		}
	}
	aggOpts.Recorder.Add("sample.recluster.objects", int64(len(singles)))

	sub := p.subProblem(singles)
	var subLabels partition.Labels
	var err error
	if len(singles) > reclusterCap {
		subLabels, err = sub.Sample(method, aggOpts, SamplingOptions{Rand: rng, NoSingletonRecluster: true})
	} else {
		subLabels, err = sub.Aggregate(method, withMaterialize(aggOpts))
	}
	if err != nil {
		return err
	}
	if rec := aggOpts.Recorder; rec != nil && len(singles) <= reclusterCap {
		// Post-recluster quality: the disagreement cost of the re-aggregated
		// singleton subset on its own sub-problem. Instrumentation-only, and
		// O(|singles|·m) from contingency counts (a pair scan only under
		// MissingAverage with missing labels, which the reclusterCap cap
		// keeps off the near-linear main path).
		rec.Series("sample.recluster.cost").Append(int64(len(singles)), sub.Disagreement(subLabels))
	}

	for i, obj := range singles {
		labels[obj] = base + subLabels[i]
	}
	return nil
}
