package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// assignBatchSize is the number of objects one assignment batch covers: each
// batch lands one observation in the sample.assign.batch.seconds histogram
// and advances the shared progress counter once, so the instrumentation cost
// is amortized across thousands of objects and stays invisible next to the
// per-object evaluation work.
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
	// same aggOpts.Workers cap (see corrclust.LocalSearch). Objects are
	// independent, so the pass streams them on chunked worker stripes
	// (capped by aggOpts.Workers); a fresh singleton takes the provisional
	// label k+v, unique per object regardless of scheduling, and the final
	// Normalize maps every worker count's labeling to the same clustering.
	//
	// The pass runs on the columnar label kernel's histogram assignment —
	// O(m·k) per object with O(n·m + m·L·k) total memory, no O(n²)
	// anything (see labelkernel.go).
	// Sample membership needs no side table: labels was initialized to
	// Missing everywhere and then set exactly on the sample positions, so
	// labels[v] != Missing identifies the sample — one fewer O(n)
	// allocation, and each assignment stripe only reads positions it owns.
	assignSpan := rec.Start("sample:assign")
	workers := effectiveWorkers(aggOpts.Workers)
	if workers > n {
		workers = n
	}
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

// assignKernel is the assignment pass. The default route evaluates
// M(v, C_c) for all k sample clusters through the co-label histograms in
// one O(m·k) pass per object; under MissingAverage with missing labels
// present — where per-pair vote denominators do not decompose per
// clustering — it evaluates the sample members through the kernel's bulk
// row path instead (still O(m·s) per object, but tight label compares, and
// bit-identical to per-pair probing unconditionally). Objects stream on
// contiguous chunk stripes. The tests pin this pass against a probing
// reference (assignReference in oracle_test.go) on identical inputs.
//
// Counters: sample.assign.dist_probes is bulk-charged with the (n−s)·s
// object/member pairs a probing pass would evaluate;
// sample.assign.kernel_cols records the n packed label columns and
// sample.assign.hist_builds the per-clustering histogram builds (0 on the
// row route). Batch latencies land in sample.assign.batch.seconds and the
// shared progress counter ticks once per batch (Done = objects scanned so
// far across all chunks, Total = n).
func (p *Problem) assignKernel(rec *obs.Recorder, progress *obs.Progress, labels partition.Labels, members [][]int, workers int) (assigned, fresh int64) {
	n, k := p.n, len(members)
	lk := p.kernel()
	rec.Add("sample.assign.kernel_cols", int64(n))

	var hist *colabelHist
	var flat []int // row route: sample members flattened in cluster order
	var ends []int // per-cluster segment ends into flat
	sampleSize := 0
	for _, mem := range members {
		sampleSize += len(mem)
	}
	if lk.average && lk.anyMiss {
		flat = make([]int, 0, sampleSize)
		ends = make([]int, 0, k)
		for _, mem := range members {
			flat = append(flat, mem...)
			ends = append(ends, len(flat))
		}
		rec.Add("sample.assign.hist_builds", 0)
	} else {
		hist = lk.buildColabelHist(members)
		rec.Add("sample.assign.hist_builds", int64(lk.m))
	}
	rec.Add("sample.assign.dist_probes", int64(n-sampleSize)*int64(sampleSize))
	var batchHist *obs.Histogram
	var tpSeries *obs.Series
	if rec != nil {
		batchHist = rec.Histogram("sample.assign.batch.seconds", nil)
		tpSeries = rec.Series("sample.assign.throughput")
	}
	var done atomic.Int64

	counts := make([][2]int64, workers) // assigned, fresh per stripe
	assignChunk := func(stripe, lo, hi int) {
		mPtr, m := getF64(k)
		defer putF64(mPtr)
		var buf []float64
		if hist == nil {
			bufPtr, b := getF64(len(flat))
			defer putF64(bufPtr)
			buf = b
		}
		for bLo := lo; bLo < hi; bLo += assignBatchSize {
			bHi := bLo + assignBatchSize
			if bHi > hi {
				bHi = hi
			}
			var batchStart time.Time
			if batchHist != nil {
				batchStart = time.Now()
			}
			for v := bLo; v < bHi; v++ {
				if labels[v] != partition.Missing {
					continue
				}
				if hist != nil {
					hist.affinities(lk, v, m)
				} else {
					lk.DistRowTo(v, flat, buf)
					start := 0
					for ci, end := range ends {
						var s float64
						for _, x := range buf[start:end] {
							s += x
						}
						m[ci] = s
						start = end
					}
				}
				var totalAway float64
				for ci := range members {
					totalAway += float64(len(members[ci])) - m[ci]
				}
				bestC, bestCost := -1, totalAway // -1 = fresh singleton
				for ci := range members {
					d := m[ci] + totalAway - (float64(len(members[ci])) - m[ci])
					if d < bestCost {
						bestC, bestCost = ci, d
					}
				}
				if bestC == -1 {
					labels[v] = k + v
					counts[stripe][1]++
				} else {
					labels[v] = bestC
					counts[stripe][0]++
				}
			}
			d := done.Add(int64(bHi - bLo))
			if batchHist != nil {
				sec := time.Since(batchStart).Seconds()
				batchHist.Observe(sec)
				// Per-batch throughput (objects/s), stepped by the shared
				// scan position. Timing-bearing, so benchdiff ignores it.
				if sec > 0 {
					tpSeries.Append(d, float64(bHi-bLo)/sec)
				}
			}
			progress.Emit(obs.ProgressEvent{
				Stage: "sample:assign", Done: d, Total: int64(n),
			})
		}
	}
	if workers <= 1 {
		assignChunk(0, 0, n)
	} else {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(stripe, lo, hi int) {
				defer wg.Done()
				obs.Do(obs.ProfLabels{Phase: "sample:assign", Worker: strconv.Itoa(stripe)}, func() {
					assignChunk(stripe, lo, hi)
				})
			}(w, lo, hi)
		}
		wg.Wait()
	}
	for _, c := range counts {
		assigned += c[0]
		fresh += c[1]
	}
	return assigned, fresh
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
// scheduling is nondeterministic), seeded from the shard's pre-drawn seed.
// Both the drain-then-compute path (sampleSharded) and the pipelined one
// (SampleFeed) go through here, so a shard's labels depend only on its rows
// and seed — never on which driver ran it.
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

// sampleSharded is the two-level SAMPLING tree (SamplingOptions.Shards):
//
//  1. partition the objects into `shards` contiguous ranges;
//  2. aggregate each shard independently with a full single-level Sample on
//     the non-materialized kernel path — shards run in parallel on the
//     Workers pool, each single-threaded and seeded from a pre-drawn
//     per-shard seed, so the shard clusterings are bit-identical for every
//     worker count;
//  3. take the first member of each non-singleton shard cluster as its
//     representative (singleton shard clusters are noise the top-level
//     recluster pass handles; promoting them would scale the representative
//     set with the noise rate) and aggregate the representatives (exactly,
//     or by a recursive single-level Sample when there are many);
//  4. route every object through the shared assignment/recluster back half
//     against the representative clusters — the same O(m·k)-per-object
//     histogram pass as single-level SAMPLING, now with k the number of
//     representative clusters.
//
// Telemetry: sample.shards and sample.shard.reps counters, sample:shards /
// sample:reps spans, a sample.shard.k series (per-shard representative
// counts in shard order), and per-completed-shard progress events. Inner shard
// aggregations run unrecorded (their scheduling is nondeterministic); all
// shard telemetry is appended after the parallel section, in shard order,
// so reports are deterministic.
func (p *Problem) sampleSharded(method Method, aggOpts AggregateOptions, sOpts SamplingOptions, rng *rand.Rand, shards int) (partition.Labels, error) {
	rec := aggOpts.Recorder
	n := p.n
	span := rec.Start("sample")
	defer span.End()
	rec.Add("sample.shards", int64(shards))
	// Auto-sizing decision, narrated: requested 0 means the count came from
	// the fixed shardTarget segmentation.
	rec.Event("sample.shards", "shards", shards, "n", n, "auto", sOpts.Shards == 0)

	// Pre-draw the per-shard seeds plus the representative-level seed in
	// shard order, before anything runs: the randomness each level consumes
	// is then independent of scheduling.
	seeds := make([]int64, shards)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	repRng := rand.New(rand.NewSource(rng.Int63()))

	shardSpan := rec.Start("sample:shards")
	type shardOut struct {
		reps []int // first member of each shard cluster, ascending
		err  error
	}
	outs := make([]shardOut, shards)
	workers := effectiveWorkers(aggOpts.Workers)
	if workers > shards {
		workers = shards
	}
	var done atomic.Int64
	auto := sOpts.Shards == 0
	runShard := func(i int) {
		lo, hi := shardRange(i, n, shards, auto)
		// Contiguous ranges alias the parent's labels (subProblemRange) —
		// a shard subproblem costs a Problem header, not a copy of its
		// share of the inputs. Only clusters with at least two members send
		// a representative up — a shard-level singleton is an object the
		// shard could not cluster, and promoting every one would grow the
		// representative set (and the O(m·k)-per-object cost of the final
		// assignment) with the noise rate instead of the cluster structure.
		// Skipped objects are not lost: they re-enter at the final
		// assignment like every other non-sample object and fall to the
		// singleton recluster if they still fit nowhere.
		labels, err := shardSample(p.subProblemRange(lo, hi), method, aggOpts, sOpts, seeds[i])
		if err != nil {
			outs[i].err = err
			return
		}
		outs[i].reps = shardReps(labels, lo)
		aggOpts.Progress.Emit(obs.ProgressEvent{
			Stage: "sample:shards", Done: done.Add(1), Total: int64(shards),
		})
	}
	if workers <= 1 {
		for i := 0; i < shards; i++ {
			runShard(i)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				obs.Do(obs.ProfLabels{Phase: "sample:shards", Worker: strconv.Itoa(i)}, func() {
					runShard(i)
				})
				<-sem
			}(i)
		}
		wg.Wait()
	}
	kSeries := rec.Series("sample.shard.k")
	var reps []int
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("core: shard %d/%d: %w", i, shards, outs[i].err)
		}
		kSeries.Append(int64(i), float64(len(outs[i].reps)))
		reps = append(reps, outs[i].reps...) // shard ranges are ordered, so reps stay sorted
	}
	rec.Add("sample.shard.reps", int64(len(reps)))
	rec.Event("sample.shard.reps", "reps", len(reps), "shards", shards)
	shardSpan.End()

	// Aggregate the representatives: exactly when they fit the materialized
	// core, by a recursive single-level Sample otherwise (same cap as the
	// singleton recluster).
	repSpan := rec.Start("sample:reps")
	repProblem := p.subProblem(reps)
	var repLabels partition.Labels
	var err error
	if len(reps) > reclusterCap {
		repLabels, err = repProblem.Sample(method, aggOpts, SamplingOptions{
			Rand:   repRng,
			Shards: 1,
		})
	} else {
		repLabels, err = repProblem.Aggregate(method, withMaterialize(aggOpts))
	}
	repSpan.End()
	if err != nil {
		return nil, err
	}
	return p.finishSample(rec, method, aggOpts, sOpts, repRng, reps, repLabels)
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
