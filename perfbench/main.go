// Command perfbench is the repository's benchmark: it generates one of four
// named workloads from a seed, drives the public entry points from the
// user-supplied input through to labels, checks the labels, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload stream-2m --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no Recorder
// attached; with --trace 1 it makes one traced call and prints the
// per-layer metrics and the phase table. Run it through run.sh, which
// builds it. METRICS.md maps every metric to its layer and workload.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	"clusteragg/internal/partition"
)

// metric is one reported metric as BENCHMARK.json declares it.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"objects_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes", "B", "lower", 0.10},
	{"peak_heap_bytes", "B", "lower", 0.20},
	{"rand_index", "ratio", "higher", 0.02},
	{"cost_ratio", "ratio", "lower", 0.15},
	{"success_rate", "ratio", "higher", 0.01},
}

var perLayer = []metric{
	{name: "dataset.read_s", unit: "s", better: "lower"},
	{name: "dataset.bytes_per_s", unit: "B/s", better: "higher"},
	{name: "dataset.rows", unit: "count", better: "lower"},
	{name: "dataset.bytes", unit: "B", better: "lower"},
	{name: "dataset.alloc_bytes", unit: "B", better: "lower"},
	{name: "dataset.sink_wait_s", unit: "s", better: "lower"},
	{name: "core.feed.finish_s", unit: "s", better: "lower"},
	{name: "core.pack_s", unit: "s", better: "lower"},
	{name: "core.pack.arena_bytes", unit: "B", better: "lower"},
	{name: "core.sample.shards_s", unit: "s", better: "lower"},
	{name: "core.sample.reps_s", unit: "s", better: "lower"},
	{name: "core.sample.core_s", unit: "s", better: "lower"},
	{name: "core.sample.assign_s", unit: "s", better: "lower"},
	{name: "core.sample.assign.ns_per_object", unit: "ns", better: "lower"},
	{name: "core.sample.recluster_s", unit: "s", better: "lower"},
	{name: "core.sample.shards", unit: "count", better: "lower"},
	{name: "core.sample.reps", unit: "count", better: "lower"},
	{name: "core.sample.assigned", unit: "count", better: "higher"},
	{name: "core.sample.fresh_singletons", unit: "count", better: "lower"},
	{name: "core.sample.recluster_objects", unit: "count", better: "lower"},
	{name: "core.sample.assign.kernel_cols", unit: "count", better: "lower"},
	{name: "core.materialize_s", unit: "s", better: "lower"},
	{name: "core.materialize.cells", unit: "count", better: "lower"},
	{name: "core.materialize.block_adds", unit: "count", better: "lower"},
	{name: "core.disagreement_s", unit: "s", better: "lower"},
	{name: "core.lower_bound_s", unit: "s", better: "lower"},
	{name: "core.objective.ns_per_pair", unit: "ns", better: "lower"},
	{name: "corrclust.localsearch_s", unit: "s", better: "lower"},
	{name: "corrclust.agglomerative_s", unit: "s", better: "lower"},
	{name: "corrclust.balls_s", unit: "s", better: "lower"},
	{name: "corrclust.furthest_s", unit: "s", better: "lower"},
	{name: "corrclust.localsearch.moves", unit: "count", better: "lower"},
	{name: "corrclust.localsearch.sweeps", unit: "count", better: "lower"},
	{name: "corrclust.localsearch.move_ratio", unit: "ratio", better: "higher"},
	{name: "corrclust.agglomerative.merges", unit: "count", better: "lower"},
	{name: "corrclust.agglomerative.stale_ratio", unit: "ratio", better: "lower"},
	{name: "corrclust.furthest.center_picks", unit: "count", better: "lower"},
	{name: "corrclust.furthest.dist_probes", unit: "count", better: "lower"},
	{name: "corrclust.furthest.reassign_rounds", unit: "count", better: "lower"},
	{name: "obs.trace_overhead", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_s", unit: "s", better: "lower"},
}

// defaultSeed is the seed expectedHash was recorded at.
const defaultSeed = 1

// expectedHash is each workload's label hash at defaultSeed. A call at that
// seed whose labels hash differently is a failed call.
var expectedHash = map[string]uint64{
	"stream-2m":      0x4944f840836e8d24,
	"facade-16k":     0xdb7bbbce602e247e,
	"exact-3k":       0xa2901181f3cc9a11,
	"recluster-200k": 0x1772f0cf35eb3055,
}

const (
	// An untraced run repeats set-up at least minSetups times and until
	// setupFor has passed (at most maxSetups times); setup_s is the median.
	minSetups = 3
	maxSetups = 1000
	setupFor  = 2 * time.Second
	minCalls  = 3 // measured calls per untraced run, however long they take
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: stream-2m | facade-16k | exact-3k | recluster-200k")
	seed := flag.Int64("seed", defaultSeed, "seed every input is drawn from")
	seconds := flag.Float64("seconds", 10, "how long to keep making measured calls")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced call")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, workers: runtime.NumCPU()}
	var vals map[string]float64
	var defs []metric
	var err error
	if *trace == 0 {
		vals, err = r.endToEnd(time.Duration(*seconds * float64(time.Second)))
		defs = endToEnd
	} else {
		vals, err = r.traced()
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
		fmt.Printf("%-40s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runner makes and checks the calls of one benchmark run.
type runner struct {
	w         *workload
	seed      int64
	workers   int
	inst      instance
	instSeed  int64  // the seed inst was drawn from
	ref       uint64 // label hash of the first correct call on inst (0: none yet)
	attempted int
	failed    int
}

// setup generates the workload's input from seed, replacing the current
// one, and returns how long it took. It forces no GC first: a collection
// right before makes the timing noisier, not truer.
func (r *runner) setup(seed int64) time.Duration {
	r.inst = nil
	start := time.Now()
	r.inst = r.w.setup(seed)
	r.instSeed = seed
	r.ref = 0
	return time.Since(start)
}

// call makes one measured call and checks its labels. A call that errors
// or returns wrong labels counts as failed and reports ok false.
func (r *runner) call(tr *tracer, workers int) (it iteration, out []partition.Labels, ok bool) {
	r.attempted++
	it, err := measure(func() error {
		var err error
		out, err = r.inst.run(tr, workers)
		return err
	})
	if err == nil {
		err = r.check(out)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s call %d (workers %d, traced %v) failed: %v\n",
			r.w.name, r.attempted, workers, tr != nil, err)
		return it, nil, false
	}
	return it, out, true
}

// check validates labels: one normalized label per object, and a label hash
// equal to every earlier call's on the same input and, for the input drawn
// from the default seed, to the recorded one.
func (r *runner) check(out []partition.Labels) error {
	n := r.inst.objects()
	for i, labels := range out {
		if len(labels) != n {
			return fmt.Errorf("labels %d: %d objects, want %d", i, len(labels), n)
		}
		if err := checkNormalized(labels); err != nil {
			return fmt.Errorf("labels %d: %w", i, err)
		}
	}
	h := hashLabels(out...)
	if want := expectedHash[r.w.name]; r.instSeed == defaultSeed && h != want {
		return fmt.Errorf("label hash %016x, want %016x recorded for seed %d", h, want, defaultSeed)
	}
	if r.ref == 0 {
		r.ref = h
	} else if h != r.ref {
		return fmt.Errorf("label hash %016x differs from the first call's on this input (%016x)", h, r.ref)
	}
	return nil
}

// checkQuality evaluates a call's labels and counts the call as failed
// when they miss the planted groups or undercut the objective's lower
// bound.
func (r *runner) checkQuality(out []partition.Labels) (ri, cost float64) {
	ri, cost, err := r.inst.quality(out)
	if err == nil && ri < r.w.minRand {
		err = fmt.Errorf("Rand index %.4f below %.2f", ri, r.w.minRand)
	}
	if err == nil && !(cost >= 1) {
		err = fmt.Errorf("cost ratio %v below 1", cost)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s quality check failed: %v\n", r.w.name, err)
	}
	return ri, cost
}

// endToEnd is an untraced run. It times repeated set-ups of the input
// drawn from the run's seed, makes one warm-up call on it, then makes
// measured calls, each on a fresh input: the first on the seed's own
// input, the rest on inputs from seeds derived from it. The measured calls
// fill the window d: a call that would likely end past it is not started,
// so the measured part of a run lasts about d whatever its call time.
//
// How much work one input takes varies from seed to seed (the number of
// clusters a sample finds, say), so spreading the calls over inputs makes
// a run stand for the workload, not for one draw. The host's speed also
// wanders from call to call, so a run reports medians, which one slow
// stretch of calls moves less than it moves a mean.
func (r *runner) endToEnd(d time.Duration) (map[string]float64, error) {
	var setups []float64
	var digest uint64
	for start := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(start) < setupFor); {
		setups = append(setups, r.setup(r.seed).Seconds())
		if dg := r.inst.digest(); len(setups) == 1 {
			digest = dg
		} else if dg != digest {
			return nil, errors.New("set-up is not deterministic: two inputs from one seed differ")
		}
	}
	r.call(nil, r.workers)
	start := time.Now()
	var walls, allocs, peaks, rands, costs []float64
	var last time.Duration // how long the latest loop pass took
	for i := 0; len(walls) < minCalls || time.Since(start)+last <= d; i++ {
		pass := time.Now()
		if i > 0 {
			r.setup(inputSeed(r.seed, i))
		}
		it, out, ok := r.call(nil, r.workers)
		if !ok {
			if r.failed > 2*minCalls {
				break
			}
			continue
		}
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, float64(it.alloc))
		peaks = append(peaks, float64(it.peak))
		ri, cost := r.checkQuality(out)
		rands = append(rands, ri)
		costs = append(costs, cost)
		last = time.Since(pass)
	}
	wall := median(walls)
	fmt.Printf("%s: seed %d, %d workers, %d set-ups, %d measured calls; wall_s of each: %.4f\n",
		r.w.name, r.seed, r.workers, len(setups), len(walls), walls)
	return map[string]float64{
		"wall_s":          wall,
		"objects_per_s":   ratio(float64(r.inst.objects()), wall),
		"setup_s":         median(setups),
		"alloc_bytes":     median(allocs),
		"peak_heap_bytes": median(peaks),
		"rand_index":      mean(rands),
		"cost_ratio":      mean(costs),
		"success_rate":    1 - float64(r.failed)/float64(r.attempted),
	}, nil
}

// inputSeed derives the seed of a run's i-th input (i ≥ 1) from the run's
// seed by a SplitMix64 step, so runs with nearby seeds share no inputs.
func inputSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// traced is a traced run: an untraced warm-up and baseline call, one call
// with a Recorder attached, and a call at one worker. All four must give
// the same labels: the Recorder and the worker count change nothing.
func (r *runner) traced() (map[string]float64, error) {
	r.setup(r.seed)
	r.call(nil, r.workers)
	base, _, _ := r.call(nil, r.workers)
	tr := newTracer()
	cycles0, pause0 := gcStats()
	it, out, ok := r.call(tr, r.workers)
	cycles1, pause1 := gcStats()
	if f, isFacade := r.inst.(*facadeInst); ok && isFacade {
		if err := f.traceObjective(tr, out[0]); err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s objective replay failed: %v\n", r.w.name, err)
		}
	}
	r.call(nil, 1)
	overhead := ratio(it.wall.Seconds(), base.wall.Seconds()) - 1
	writePhaseTable(os.Stdout, tr, overhead)
	return layerMetrics(tr, r.inst.objects(), overhead, cycles1-cycles0, pause1-pause0), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// checkNormalized reports whether labels number clusters 0, 1, 2, ... in
// order of first occurrence, as every method's output must.
func checkNormalized(labels partition.Labels) error {
	next := 0
	for i, c := range labels {
		switch {
		case c == next:
			next++
		case c < 0 || c > next:
			return fmt.Errorf("object %d has label %d, want at most %d", i, c, next)
		}
	}
	return nil
}

// hashLabels is the FNV-64a hash of the label sets, in order.
func hashLabels(out ...partition.Labels) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, labels := range out {
		for _, c := range labels {
			binary.LittleEndian.PutUint32(b[:], uint32(int32(c)))
			h.Write(b[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xfe}) // set separator; no label encodes to it
	}
	return h.Sum64()
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
