// Package core implements the clustering-aggregation framework of
// "Clustering Aggregation" (Gionis, Mannila, Tsaparas; ICDE 2005).
//
// A Problem holds m input clusterings C_1..C_m over the same n objects. The
// goal is a single clustering C minimizing the total disagreement
// D(C) = Σ_i d_V(C_i, C), where d_V counts object pairs placed together by
// one clustering and apart by the other. The Problem is itself a
// correlation-clustering Instance (Section 3's reduction): the distance
// X_uv is the fraction of input clusterings separating u and v, so
// D(C) = m · cost(C) and every algorithm from package corrclust applies.
//
// Missing values (label partition.Missing in an input clustering) follow the
// paper's coin model: an attribute missing a value on a pair reports
// "together" with probability p (MissingTogether, default 1/2), so it
// contributes 1−p to X_uv and all costs are expectations.
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// DefaultMissingTogether is the default probability p with which a
// clustering carrying a missing value reports a pair as co-clustered.
const DefaultMissingTogether = 0.5

// MissingMode selects how input clusterings with missing labels contribute
// to the pairwise distances. Section 2 of the paper describes both
// strategies.
type MissingMode int

const (
	// MissingCoin is the paper's adopted approach: a clustering with a
	// missing value on a pair reports "together" with probability p
	// (MissingTogether) and costs become expectations.
	MissingCoin MissingMode = iota
	// MissingAverage is the paper's alternative: "an attribute that
	// contains a missing value in some tuple does not have any information
	// about how this tuple should be clustered, so we should let the
	// remaining attributes decide" — X_uv is the disagreeing fraction among
	// only the clusterings that have values on both objects. A pair missing
	// from every clustering gets distance 1/2 (no information either way).
	MissingAverage
)

// Problem is a clustering-aggregation instance: m input clusterings over n
// objects. It implements corrclust.Instance, so it can be fed directly to
// any correlation-clustering algorithm. Construct with NewProblem (from
// []Labels) or NewProblemPacked (from a packed label block); both hold the
// inputs the same way, as one width-packed block.
type Problem struct {
	n           int
	missingP    float64
	missingMode MissingMode
	weights     []float64 // nil means uniform
	totalWeight float64

	// packed holds the inputs as a width-packed label block. The kernel
	// aliases it zero-copy; the few paths that need per-clustering []int
	// views read unpacked, which NewProblem seeds with the caller's own
	// slices and NewProblemPacked problems unpack lazily, once.
	packed     *PackedClusterings
	unpackOnce sync.Once
	unpacked   []partition.Labels

	// kernelOnce caches the auto-width label kernel: every Problem builds it
	// at most once, so repeated Dist/Disagreement/LowerBound/Sample calls
	// share one set of premultiplied weights over the packed block.
	kernelOnce   sync.Once
	kernelCached *labelKernel
}

// ProblemOptions configures NewProblem.
type ProblemOptions struct {
	// MissingTogether is the coin-model probability p that a clustering with
	// a missing value reports a pair as co-clustered. Zero means the default
	// of 1/2; values must lie in [0,1]. Only meaningful with MissingCoin.
	MissingTogether float64
	// MissingMode selects the missing-value strategy (MissingCoin, the
	// paper's adopted model, is the zero value).
	MissingMode MissingMode
	// Weights assigns a positive importance to each input clustering; the
	// objective becomes Σ w_i·d_V(C_i, C) and X_uv the weighted separating
	// fraction. Nil means uniform weights (the paper's formulation). When
	// set, the length must match the number of clusterings.
	Weights []float64
}

// ErrNoClusterings is returned when a Problem is constructed without inputs.
var ErrNoClusterings = errors.New("core: no input clusterings")

// NewProblem validates the inputs and builds an aggregation problem. All
// clusterings must have the same length and contain only valid labels
// (non-negative and below math.MaxInt32, or partition.Missing). The labels
// are packed into the same block NewProblemPacked takes; Clusterings and the
// []int-reading paths keep using the caller's slices, so callers must not
// modify them afterwards.
func NewProblem(clusterings []partition.Labels, opts ProblemOptions) (*Problem, error) {
	if len(clusterings) == 0 {
		return nil, ErrNoClusterings
	}
	n := len(clusterings[0])
	for i, c := range clusterings {
		if len(c) != n {
			return nil, fmt.Errorf("core: clustering %d has %d objects, want %d: %w",
				i, len(c), n, partition.ErrLengthMismatch)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("core: clustering %d: %w", i, err)
		}
	}
	b := NewPackedColumns(n, len(clusterings))
	for _, c := range clusterings {
		if err := b.AppendColumn(c); err != nil {
			return nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, err
	}
	prob, err := NewProblemPacked(pc, opts)
	if err != nil {
		return nil, err
	}
	prob.unpackOnce.Do(func() { prob.unpacked = clusterings })
	return prob, nil
}

// problemOptionsOf validates the options against m input clusterings and
// returns a Problem with the option-derived fields (missing model, weights,
// total weight) set; the caller fills in the inputs themselves. Shared by
// NewProblem and NewProblemPacked so both constructors enforce identical
// rules.
func problemOptionsOf(m int, opts ProblemOptions) (*Problem, error) {
	p := opts.MissingTogether
	if p == 0 {
		p = DefaultMissingTogether
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("core: MissingTogether %v outside [0,1]", p)
	}
	if opts.MissingMode != MissingCoin && opts.MissingMode != MissingAverage {
		return nil, fmt.Errorf("core: unknown MissingMode %d", opts.MissingMode)
	}
	prob := &Problem{
		missingP:    p,
		missingMode: opts.MissingMode,
		totalWeight: float64(m),
	}
	if opts.Weights != nil {
		if len(opts.Weights) != m {
			return nil, fmt.Errorf("core: %d weights for %d clusterings", len(opts.Weights), m)
		}
		prob.totalWeight = 0
		for i, w := range opts.Weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: weight %d is %v, want positive and finite", i, w)
			}
			prob.totalWeight += w
		}
		prob.weights = append([]float64(nil), opts.Weights...)
	}
	return prob, nil
}

// weight returns the weight of input clustering i.
func (p *Problem) weight(i int) float64 {
	if p.weights == nil {
		return 1
	}
	return p.weights[i]
}

// N returns the number of objects.
func (p *Problem) N() int { return p.n }

// M returns the number of input clusterings.
func (p *Problem) M() int { return p.packed.m }

// labelViews returns per-clustering []int label views of the inputs: the
// caller's slices on a NewProblem problem, otherwise a lazily-unpacked
// (once, cached) materialization of the packed block. The kernel path never
// calls this; only the contingency-table BestClustering, matrix
// materialization, and Clusterings() do.
func (p *Problem) labelViews() []partition.Labels {
	p.unpackOnce.Do(func() { p.unpacked = p.packed.unpackAll() })
	return p.unpacked
}

// Clusterings returns the input clusterings (not a copy; callers must not
// modify them). On a NewProblem problem these are the caller's own slices;
// on a NewProblemPacked problem this materializes []int views of the label
// block, allocated once per Problem.
func (p *Problem) Clusterings() []partition.Labels { return p.labelViews() }

// Dist returns X_uv: the (expected) fraction of input clusterings that place
// u and v in different clusters, evaluated by the label kernel over the
// packed block. Dist satisfies corrclust.Instance and, under MissingCoin,
// obeys the triangle inequality. Under MissingAverage only clusterings with
// values on both objects vote, and a pair with no votes gets 1/2; those
// distances need not obey the triangle inequality (different pairs average
// over different clusterings), so the BALLS guarantee does not formally
// carry over and the algorithms apply as heuristics.
func (p *Problem) Dist(u, v int) float64 { return p.kernel().Dist(u, v) }

// Disagreement returns the (expected) total number of unordered-pair
// disagreements D(C) = Σ_i d_V(C_i, C) between labels and the inputs. This
// is the objective of Problem 1 on the unordered-pair scale; the paper's
// ordered-pair figure is exactly twice this value.
//
// The O(n²) pair scan runs over the columnar label kernel — bit-identical
// distances evaluated as contiguous label compares instead of per-pair
// interface probes — so evaluating a solution never materializes a matrix.
func (p *Problem) Disagreement(labels partition.Labels) float64 {
	return p.totalWeight * corrclust.Cost(p.kernel(), labels)
}

// LowerBound returns m · Σ_{u<v} min(X_uv, 1−X_uv), a lower bound on the
// disagreement of every possible clustering (the "Lower bound" rows of
// Tables 2 and 3). Like Disagreement, it scans pairs through the columnar
// label kernel, matrix-free.
func (p *Problem) LowerBound() float64 {
	return p.totalWeight * corrclust.LowerBound(p.kernel())
}

// completeMissing returns labels with every Missing entry replaced by a
// fresh singleton cluster, making an attribute-derived clustering usable as
// a candidate solution.
func completeMissing(labels partition.Labels) partition.Labels {
	out := labels.Clone()
	next := 0
	for _, v := range out {
		if v >= next {
			next = v + 1
		}
	}
	for i, v := range out {
		if v == partition.Missing {
			out[i] = next
			next++
		}
	}
	return out.Normalize()
}

// BestClustering implements the BESTCLUSTERING algorithm: it returns the
// input clustering with the smallest total disagreement, its index among the
// inputs, and that disagreement. Missing labels in the winning input are
// completed as singleton clusters. The result is a 2(1−1/m)-approximation of
// the optimal aggregation.
//
// On inputs without missing values (and uniform weights under the coin
// model's expectations not being needed), the disagreements are computed
// through pairwise contingency tables in O(m²·(n + k²)) — the near-linear
// regime the paper attributes to the Barthélemy–Leclerc data structures —
// instead of the O(m²·n²) pair scan. The m(m−1)/2 pairwise Mirkin
// distances are integers computed independently, so the table fills on
// worker goroutines (GOMAXPROCS here; AggregateOptions.Workers through
// Aggregate) and the reduction runs sequentially in index order — the
// result is identical for every worker count.
func (p *Problem) BestClustering() (labels partition.Labels, index int, disagreement float64) {
	return p.bestClustering(nil, 0)
}

// bestClustering is BestClustering with instrumentation and a worker cap
// (0 = GOMAXPROCS): rec (may be nil) receives bestclustering.candidates,
// bestclustering.fast_path, and — on the pairwise-scan path —
// bestclustering.dist_probes.
func (p *Problem) bestClustering(rec *obs.Recorder, workers int) (labels partition.Labels, index int, disagreement float64) {
	rec.Add("bestclustering.candidates", int64(p.M()))
	if p.fastBestApplicable() {
		rec.Add("bestclustering.fast_path", 1)
		return p.bestClusteringFast(workers)
	}
	var inst corrclust.Instance = p.kernel()
	if rec != nil {
		inst = obs.Count(inst, rec.Counter("bestclustering.dist_probes"))
	}
	bestIdx, bestD := -1, 0.0
	var best partition.Labels
	for i, c := range p.labelViews() {
		cand := completeMissing(c)
		d := p.totalWeight * corrclust.Cost(inst, cand)
		if bestIdx == -1 || d < bestD {
			bestIdx, bestD, best = i, d, cand
		}
	}
	return best, bestIdx, bestD
}

// fastBestApplicable reports whether the contingency-table shortcut computes
// exactly the same objective as the pairwise scan: no missing values (the
// coin model's expected disagreements have no contingency analogue).
// Weights are fine — they scale each pairwise distance. The packing tracked
// missing labels exactly, so no scan is needed.
func (p *Problem) fastBestApplicable() bool { return !p.packed.anyMiss }

// bestClusteringFast evaluates D(C_i) = Σ_j w_j·d_V(C_j, C_i) with Mirkin
// distances from contingency tables. The distance table is symmetric, so
// only the m(m−1)/2 pairs i<j are computed — striped over worker
// goroutines, each pair an independent integer — and the weighted
// reduction then runs sequentially over j in index order for each i, with
// ties broken toward the lower index: the same additions and comparisons
// as a fully sequential run, so every worker count returns the same
// (labels, index, disagreement).
func (p *Problem) bestClusteringFast(workers int) (partition.Labels, int, float64) {
	cs := p.labelViews()
	m := len(cs)
	np := m * (m - 1) / 2
	dist := make([]int, m*m)
	fillPair := func(i, j int) {
		dij, err := partition.Distance(cs[i], cs[j])
		if err != nil {
			// Unreachable: lengths were validated at construction.
			panic(err)
		}
		dist[i*m+j], dist[j*m+i] = dij, dij
	}
	workers = effectiveWorkers(workers)
	if workers > np {
		workers = np
	}
	if workers <= 1 {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				fillPair(i, j)
			}
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(stripe int) {
				defer wg.Done()
				obs.Do(obs.ProfLabels{Phase: "bestclustering", Worker: strconv.Itoa(stripe)}, func() {
					pi := 0
					for i := 0; i < m; i++ {
						for j := i + 1; j < m; j++ {
							if pi%workers == stripe {
								fillPair(i, j)
							}
							pi++
						}
					}
				})
			}(w)
		}
		wg.Wait()
	}

	bestIdx, bestD := -1, 0.0
	for i := 0; i < m; i++ {
		var d float64
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			// The explicit float64 rounds the product before the add, which
			// forbids a fused multiply-add (arm64, ppc64, s390x) and keeps
			// the sum identical on every GOARCH.
			d += float64(p.weight(j) * float64(dist[i*m+j]))
		}
		if bestIdx == -1 || d < bestD {
			bestIdx, bestD = i, d
		}
	}
	return cs[bestIdx].Normalize(), bestIdx, bestD
}
