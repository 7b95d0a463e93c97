package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// Method identifies one of the paper's aggregation algorithms.
type Method int

// The aggregation methods of Section 4.
const (
	// MethodBest is BESTCLUSTERING: pick the input clustering with the
	// smallest total disagreement (2(1−1/m)-approximation).
	MethodBest Method = iota
	// MethodBalls is the BALLS algorithm (3-approximation at α = 1/4).
	MethodBalls
	// MethodAgglomerative is the average-linkage AGGLOMERATIVE algorithm.
	MethodAgglomerative
	// MethodFurthest is the furthest-first top-down FURTHEST algorithm.
	MethodFurthest
	// MethodLocalSearch is LOCALSEARCH started from singletons.
	MethodLocalSearch
	// MethodPivot is the randomized pivot extension (see corrclust.Pivot);
	// not one of the paper's five algorithms.
	MethodPivot
	// MethodAnneal is the simulated-annealing extension in the style of
	// Filkov and Skiena (see corrclust.Anneal); not one of the paper's five
	// algorithms.
	MethodAnneal
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodBest:
		return "BestClustering"
	case MethodBalls:
		return "Balls"
	case MethodAgglomerative:
		return "Agglomerative"
	case MethodFurthest:
		return "Furthest"
	case MethodLocalSearch:
		return "LocalSearch"
	case MethodPivot:
		return "Pivot"
	case MethodAnneal:
		return "Anneal"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists the paper's five aggregation methods in paper order.
// ExtensionMethods lists the extras implemented beyond the paper.
func Methods() []Method {
	return []Method{MethodBest, MethodBalls, MethodAgglomerative, MethodFurthest, MethodLocalSearch}
}

// ExtensionMethods lists the aggregation methods implemented beyond the
// paper's five (see their doc comments for provenance).
func ExtensionMethods() []Method {
	return []Method{MethodPivot, MethodAnneal}
}

// Slug returns the lowercase identifier used for the method in counter
// names, span names, and the CLIs ("balls", "localsearch", ...).
func (m Method) Slug() string { return strings.ToLower(m.String()) }

// Alpha returns a pointer to a, for setting AggregateOptions.BallsAlpha
// inline: core.AggregateOptions{BallsAlpha: core.Alpha(0.4)}.
func Alpha(a float64) *float64 { return &a }

// AggregateOptions tunes Aggregate.
type AggregateOptions struct {
	// BallsAlpha is the α parameter of MethodBalls. Nil means
	// corrclust.DefaultBallsAlpha (1/4, the value of Theorem 1); a non-nil
	// pointer is used as given, so an explicit α = 0 — a legal parameter
	// that accepts only zero-distance balls — is distinguishable from
	// "unset". The Alpha helper builds the pointer inline.
	BallsAlpha *float64
	// K, when positive, asks the method to produce exactly K clusters where
	// the method supports it (MethodAgglomerative, MethodFurthest). The
	// other methods remain parameter-free and ignore K.
	K int
	// Refine applies a LOCALSEARCH post-processing pass to the method's
	// output (Section 4 suggests LOCALSEARCH "can be used ... as a
	// postprocessing step, to improve upon an existing solution").
	Refine bool
	// Materialize precomputes the dense distance matrix before running the
	// algorithm. Recommended whenever n is small enough for O(n²) memory;
	// it turns each O(m) distance probe into an array read and lets the
	// algorithms' contiguous-row fast paths engage.
	Materialize bool
	// Workers caps the worker goroutines used by the parallel stages
	// (cluster-block materialization, BestOf method racing, SAMPLING's
	// assignment pass, LOCALSEARCH's move-proposal phase — standalone and as
	// the Refine pass). Zero means GOMAXPROCS; 1 forces sequential
	// execution. Results are identical for every value.
	Workers int
	// Rand supplies randomness to the randomized methods (MethodPivot,
	// MethodAnneal). Nil means a deterministic source seeded with 1. The
	// paper's five methods are deterministic and ignore it.
	Rand *rand.Rand
	// PivotRounds is the number of independent pivot orders MethodPivot
	// tries, keeping the best (zero means 10).
	PivotRounds int
	// Recorder, when non-nil, collects spans and counters for the run:
	// every Dist probe the chosen algorithm makes is counted under
	// "<method>.dist_probes" (through an obs.CountingInstance wrapper, so
	// the algorithms' inner loops are untouched), materialization probes
	// under "materialize.dist_probes", and each algorithm contributes its
	// own counters (see internal/obs and docs/OBSERVABILITY.md). Nil — the
	// default everywhere — records nothing and changes nothing: results
	// are always identical with and without a Recorder.
	Recorder *obs.Recorder
	// Progress, when non-nil, receives throttled live-progress events from
	// the long-running stages: AGGLOMERATIVE merges, LOCALSEARCH sweeps
	// (standalone and as the Refine pass), and SAMPLING's assignment batches
	// (see Problem.Sample). Build one with obs.NewProgress; the CLIs'
	// -progress flag drives a stderr ticker with it. Like the Recorder it
	// observes and never steers: results are bit-identical with and without
	// it (internal/core/recorder_test.go asserts this for every method and
	// worker count).
	Progress *obs.Progress
}

// counting wraps inst so its Dist probes are counted under name; with a nil
// recorder it returns inst unchanged (zero overhead).
func counting(inst corrclust.Instance, rec *obs.Recorder, name string) corrclust.Instance {
	if rec == nil {
		return inst
	}
	return obs.Count(inst, rec.Counter(name))
}

// EffectiveWorkers resolves a Workers option to the worker count actually
// used: zero or negative means GOMAXPROCS. CLIs use it to report the
// effective value.
func EffectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func effectiveWorkers(w int) int { return EffectiveWorkers(w) }

// parallelFor runs f(i) for every i in [0, n) on up to workers goroutines
// (0 = GOMAXPROCS), each claiming the next index as it frees up, under the
// given pprof phase label. f must write only to slots owned by i, so the
// results do not depend on the worker count.
func parallelFor(n, workers int, phase string, f func(i int)) {
	workers = min(effectiveWorkers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: phase, Worker: strconv.Itoa(w)}, func() {
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					f(i)
				}
			})
		}(w)
	}
	wg.Wait()
}

// Aggregate runs the chosen aggregation method on the problem and returns
// the aggregate clustering with normalized labels. The whole run carries
// phase/method pprof labels (obs.Do) when profile labels are enabled, so a
// -cpuprofile slices by method with `go tool pprof -tagfocus`; worker
// goroutines spawned inside inherit them.
func (p *Problem) Aggregate(method Method, opts AggregateOptions) (labels partition.Labels, err error) {
	obs.Do(obs.ProfLabels{Phase: "aggregate", Method: method.Slug()}, func() {
		rec := opts.Recorder
		span := rec.Start("aggregate:" + method.Slug())
		defer span.End()
		var inst corrclust.Instance
		if opts.Materialize {
			ms := rec.Start("materialize")
			inst = p.materialize(rec, opts.Workers)
			ms.End()
		} else {
			// Matrix-free runs probe the columnar label kernel directly,
			// with bulk row gathers where the algorithm's inner loop
			// supports them (see corrclust.RowDistancer).
			k := p.kernel()
			rec.Event("kernel.width", "bytes", k.width, "n", p.n, "m", p.M())
			inst = k
		}
		labels, err = p.aggregateOn(inst, method, opts, nil)
	})
	return labels, err
}

// aggregateOn is Aggregate against an explicit distance oracle, shared by
// Aggregate and BestOf. When opts.Recorder is set, the oracle is wrapped so
// every probe the algorithm makes lands in "<method>.dist_probes". parent,
// when non-nil, anchors nested spans (the refinement pass) explicitly —
// BestOf's concurrent races pass their method span so the tree does not
// reflect goroutine interleaving.
func (p *Problem) aggregateOn(inst corrclust.Instance, method Method, opts AggregateOptions, parent *obs.Span) (partition.Labels, error) {
	rec := opts.Recorder
	algInst := counting(inst, rec, method.Slug()+".dist_probes")
	var labels partition.Labels
	switch method {
	case MethodBest:
		labels, _, _ = p.bestClustering(rec, opts.Workers)
	case MethodBalls:
		alpha := corrclust.DefaultBallsAlpha
		if opts.BallsAlpha != nil {
			alpha = *opts.BallsAlpha
		}
		var err error
		labels, err = corrclust.BallsWithOptions(algInst, corrclust.BallsOptions{Alpha: alpha, Recorder: rec})
		if err != nil {
			return nil, err
		}
	case MethodAgglomerative:
		labels = corrclust.AgglomerativeWithOptions(algInst, corrclust.AgglomerativeOptions{K: opts.K, Recorder: rec, Progress: opts.Progress})
	case MethodFurthest:
		labels, _ = corrclust.FurthestWithOptions(algInst, corrclust.FurthestOptions{K: opts.K, Recorder: rec})
	case MethodLocalSearch:
		labels = corrclust.LocalSearch(algInst, corrclust.LocalSearchOptions{Recorder: rec, Workers: opts.Workers, Progress: opts.Progress})
	case MethodPivot:
		rounds := opts.PivotRounds
		if rounds <= 0 {
			rounds = 10
		}
		labels = corrclust.PivotWithOptions(algInst, corrclust.PivotOptions{Rounds: rounds, Rand: opts.Rand, Recorder: rec})
	case MethodAnneal:
		labels = corrclust.Anneal(algInst, corrclust.AnnealOptions{Rand: opts.Rand, Recorder: rec})
	default:
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
	if opts.Refine && method != MethodLocalSearch {
		rs := parent.StartChild("refine")
		if parent == nil {
			rs = rec.Start("refine")
		}
		labels = corrclust.LocalSearch(counting(inst, rec, "refine.dist_probes"), corrclust.LocalSearchOptions{Init: labels, Recorder: rec, Workers: opts.Workers, Progress: opts.Progress})
		rs.End()
	}
	return labels.Normalize(), nil
}

// BestOf runs every given method (all five paper methods when methods is
// empty) and returns the clustering with the smallest total disagreement,
// together with the method that produced it. Since all the algorithms are
// cheap relative to building the distance matrix, racing them and keeping
// the best is the natural way to use the framework when solution quality
// matters more than a few extra O(n²) passes. The matrix is materialized
// once and shared.
//
// The race runs the methods concurrently over the shared oracle, bounded by
// opts.Workers (GOMAXPROCS when zero; 1 forces sequential execution). The
// outcome does not depend on scheduling: the winner is selected by cost
// with ties broken in method order, and the randomized extension methods
// each draw an independent deterministic seed, in method order, from
// opts.Rand before the race starts. Every worker count returns the same
// (labels, method).
func (p *Problem) BestOf(methods []Method, opts AggregateOptions) (partition.Labels, Method, error) {
	if len(methods) == 0 {
		methods = Methods()
	}
	rec := opts.Recorder
	span := rec.Start("bestof")
	defer span.End()
	var inst corrclust.Instance
	if opts.Materialize {
		ms := rec.Start("materialize")
		inst = p.materialize(rec, opts.Workers)
		ms.End()
		opts.Materialize = false // reuse the shared matrix below
	} else {
		k := p.kernel() // shared matrix-free kernel oracle
		rec.Event("kernel.width", "bytes", k.width, "n", p.n, "m", p.M())
		inst = k
	}

	// Pre-draw one rand per randomized method so concurrent methods never
	// share a stream; drawing in method order keeps the seeds independent
	// of scheduling and worker count.
	rngs := make([]*rand.Rand, len(methods))
	var base *rand.Rand
	for i, method := range methods {
		if method == MethodPivot || method == MethodAnneal {
			if base == nil {
				base = opts.Rand
				if base == nil {
					base = rand.New(rand.NewSource(1))
				}
			}
			rngs[i] = rand.New(rand.NewSource(base.Int63()))
		}
	}

	type raced struct {
		labels  partition.Labels
		cost    float64
		elapsed time.Duration
		err     error
	}
	results := make([]raced, len(methods))
	run := func(i int, method Method) {
		// Each racer re-labels itself (phase + method): pprof.Do replaces
		// rather than merges, and the goroutine otherwise inherits only the
		// spawner's generic bestof labels.
		obs.Do(obs.ProfLabels{Phase: "bestof", Method: method.Slug(), Worker: strconv.Itoa(i)}, func() {
			mopts := opts
			mopts.Rand = rngs[i] // nil for the deterministic methods, which ignore it
			start := time.Now()
			msp := span.StartChild("method:" + method.Slug())
			defer msp.End()
			labels, err := p.aggregateOn(inst, method, mopts, msp)
			if err != nil {
				results[i] = raced{err: err}
				return
			}
			// The per-candidate cost evaluation is part of racing this method,
			// so its probes are charged to the method's dist_probes counter.
			cost := corrclust.Cost(counting(inst, rec, method.Slug()+".dist_probes"), labels)
			results[i] = raced{labels: labels, cost: cost, elapsed: time.Since(start)}
		})
	}

	workers := effectiveWorkers(opts.Workers)
	if workers > len(methods) {
		workers = len(methods)
	}
	if workers <= 1 {
		for i, method := range methods {
			run(i, method)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, method := range methods {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, method Method) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i, method)
			}(i, method)
		}
		wg.Wait()
	}

	// Deterministic selection: first error in method order wins; otherwise
	// the lowest cost, ties broken toward the earlier method.
	var best partition.Labels
	var bestMethod Method
	bestCost := 0.0
	for i, method := range methods {
		r := results[i]
		if r.err != nil {
			return nil, 0, r.err
		}
		if best == nil || r.cost < bestCost {
			best, bestMethod, bestCost = r.labels, method, r.cost
		}
	}
	rec.Event("bestof.winner", "method", bestMethod.Slug(), "cost", bestCost, "methods", len(methods))
	if rec != nil {
		// Race trajectory, appended in method order after the race so the
		// points are deterministic regardless of scheduling: each method's
		// candidate cost (step = method index) and its elapsed race time
		// (timing-bearing; the ".seconds" suffix keeps benchdiff away).
		costSeries := rec.Series("bestof.cost")
		elapsedSeries := rec.Series("bestof.method.seconds")
		for i := range methods {
			costSeries.Append(int64(i), results[i].cost)
			elapsedSeries.Append(int64(i), results[i].elapsed.Seconds())
		}
	}
	return best, bestMethod, nil
}
