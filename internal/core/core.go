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
// Every candidate is scored by Disagreement, so the selection takes
// O(m²·n) from contingency counts — the near-linear regime the paper
// attributes to the Barthélemy–Leclerc data structures — except under
// MissingAverage with missing labels, where each candidate takes the pair
// scan. The candidates are scored on worker goroutines (GOMAXPROCS here;
// AggregateOptions.Workers through Aggregate) and compared sequentially in
// index order, ties to the lower index, so every worker count returns the
// same (labels, index, disagreement).
func (p *Problem) BestClustering() (labels partition.Labels, index int, disagreement float64) {
	return p.bestClustering(nil, 0)
}

// bestClustering is BestClustering with instrumentation and a worker cap
// (0 = GOMAXPROCS): rec (may be nil) receives bestclustering.candidates
// and, on the pair-scan regime, bestclustering.dist_probes.
func (p *Problem) bestClustering(rec *obs.Recorder, workers int) (labels partition.Labels, index int, disagreement float64) {
	cs := p.labelViews()
	rec.Add("bestclustering.candidates", int64(len(cs)))
	score := p.Disagreement
	if lk := p.kernel(); lk.average && lk.anyMiss && rec != nil {
		inst := obs.Count(lk, rec.Counter("bestclustering.dist_probes"))
		score = func(labels partition.Labels) float64 { return p.totalWeight * corrclust.Cost(inst, labels) }
	}
	ds := make([]float64, len(cs))
	parallelFor(len(cs), workers, "bestclustering", func(i int) {
		ds[i] = score(completeMissing(cs[i]))
	})
	best := 0
	for i, d := range ds {
		if d < ds[best] {
			best = i
		}
	}
	return completeMissing(cs[best]), best, ds[best]
}
