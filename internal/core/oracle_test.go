package core

import (
	"math/rand"
	"sort"
	"testing"

	"clusteragg/internal/partition"
)

// This file holds the slow reference implementations the production kernel
// is pinned against: a per-clustering distance walk over the []int labels
// and the probing assignment pass SAMPLING's histogram assignment replaces.
// They read p.Clusterings(), never the packed block or the kernel, so the
// equivalence tests compare two independent computations.

// probeDist is the reference X_uv: one pass over the input clusterings in
// index order. Under MissingCoin a clustering missing either label adds
// (1−p)·w_i and a separating one adds w_i, over the total weight; under
// MissingAverage only clusterings with both labels vote, and a pair with no
// votes is maximally uncertain (1/2). The explicit float64 rounds the coin
// product before the add — as the kernel's premultiplied missW does — so no
// GOARCH may fuse it into a multiply-add.
func probeDist(p *Problem, u, v int) float64 {
	if u == v {
		return 0
	}
	var x, votes float64
	for i, c := range p.Clusterings() {
		lu, lv := c[u], c[v]
		w := p.weight(i)
		if lu == partition.Missing || lv == partition.Missing {
			if p.missingMode == MissingCoin {
				x += float64((1 - p.missingP) * w)
			}
			continue
		}
		votes += w
		if lu != lv {
			x += w
		}
	}
	if p.missingMode == MissingCoin {
		return x / p.totalWeight
	}
	if votes == 0 {
		return 0.5
	}
	return x / votes
}

// assignReference is the probing assignment pass assignKernel is pinned
// against: every non-sample object (labels[v] == Missing) sums probeDist
// over each sample cluster's members — O(m·s) per object — and takes the
// cheapest of joining cluster c, d(v, C_c) = M(v,C_c) + Σ_{j≠c}(|C_j| −
// M(v,C_j)), or a fresh singleton labeled k+v, exactly as assignKernel
// selects.
func assignReference(p *Problem, labels partition.Labels, members [][]int) (assigned, fresh int64) {
	k := len(members)
	aff := make([]float64, k)
	for v := range labels {
		if labels[v] != partition.Missing {
			continue
		}
		var totalAway float64
		for c, mem := range members {
			aff[c] = 0
			for _, u := range mem {
				aff[c] += probeDist(p, v, u)
			}
			totalAway += float64(len(mem)) - aff[c]
		}
		bestC, bestCost := -1, totalAway // -1 = fresh singleton
		for c, mem := range members {
			if d := aff[c] + totalAway - (float64(len(mem)) - aff[c]); d < bestCost {
				bestC, bestCost = c, d
			}
		}
		if bestC == -1 {
			labels[v] = k + v
			fresh++
		} else {
			labels[v] = bestC
			assigned++
		}
	}
	return assigned, fresh
}

// sampleState reproduces single-level Sample up to its assignment pass:
// draw s objects with the seeded source, aggregate them exactly with
// method, and return the labels (sample positions set, every other object
// Missing) and the sample clusters' members — the inputs both assignment
// passes take.
func sampleState(t testing.TB, p *Problem, method Method, s int, seed int64) (partition.Labels, [][]int) {
	t.Helper()
	sample := rand.New(rand.NewSource(seed)).Perm(p.N())[:s]
	sort.Ints(sample)
	sampleLabels, err := p.subProblem(sample).Aggregate(method, withMaterialize(AggregateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	labels := make(partition.Labels, p.N())
	for i := range labels {
		labels[i] = partition.Missing
	}
	members := make([][]int, sampleLabels.K())
	for si, c := range sampleLabels {
		labels[sample[si]] = c
		members[c] = append(members[c], sample[si])
	}
	return labels, members
}

// assignBoth runs assignKernel (on workers ≥ 1 chunk stripes) and
// assignReference on copies of the same state and returns both labelings.
func assignBoth(p *Problem, labels partition.Labels, members [][]int, workers int) (kernel, ref partition.Labels) {
	kernel, ref = labels.Clone(), labels.Clone()
	p.assignKernel(nil, nil, kernel, members, workers)
	assignReference(p, ref, members)
	return kernel, ref
}

// kernelWidth builds p's kernel at an explicit width in bytes (0 = the
// cached auto-width kernel). Forcing a width narrower than the packed block
// panics; forced builds bypass the cache so they never leak into the auto
// path. Tests use wider-than-minimum kernels to pin the widths bit-identical
// against each other.
func (p *Problem) kernelWidth(force int) *labelKernel {
	if force == 0 {
		return p.kernel()
	}
	return p.packed.kernelFrom(p, force)
}

// TestNewProblemKeepsCallerSlices: NewProblem packs its input but seeds the
// []int views with the caller's own slices, so Clusterings (and the
// materialization and BestClustering paths behind it) read them in place —
// no unpack, no copy.
func TestNewProblemKeepsCallerSlices(t *testing.T) {
	cs := []partition.Labels{{0, 0, 1, partition.Missing}, {2, 1, 1, 0}}
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Clusterings()
	if len(got) != len(cs) {
		t.Fatalf("Clusterings() has %d clusterings, want %d", len(got), len(cs))
	}
	for i := range cs {
		if &got[i][0] != &cs[i][0] {
			t.Errorf("clustering %d: Clusterings() returned a copy, not the caller's slice", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = p.Clusterings() }); allocs != 0 {
		t.Errorf("Clusterings() allocates %v objects, want 0", allocs)
	}
}
