package core

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file is the cluster-block materialization kernel: it builds the dense
// distance matrix clustering-by-clustering from cluster membership lists
// instead of calling Problem.Dist once per pair.
//
// The naive build costs O(m·n²): every pair probes Dist, and every probe is
// a branchy O(m) loop over the input clusterings through an interface call.
// The block kernel inverts the loops. Every pair starts from the
// "all clusterings separate it" weight; then each input clustering subtracts
// its co-membership blocks (pairs it places together) and adjusts the pairs
// it is missing on. A clustering with clusters of sizes |c| touches
// Σ_c |c|(|c|-1)/2 pairs plus its missing rows, so the total work is
// O(n² + m·Σ_c|c|²) sequential float adds on contiguous rows — for m
// clusterings of ~k even clusters, a ~k× algorithmic win over the naive
// scan on top of removing the per-pair interface call. See
// docs/PERFORMANCE.md for the derivation and equivalence argument.
//
// Work is split across row-stripe workers exactly like
// corrclust.MatrixFromInstanceParallel: worker w owns rows u ≡ w (mod
// workers), every pair {u,v} belongs to row min(u,v), and each worker
// applies the per-clustering updates to its own rows in the same order a
// sequential build would, so the result is bit-identical for every worker
// count.

// materializeMinParallel is the matrix size below which the build runs on a
// single stripe (goroutine overhead dominates under it).
const materializeMinParallel = 256

// clusteringBlocks is one input clustering reshaped for the block kernel.
type clusteringBlocks struct {
	// members lists the objects of each cluster (present labels only),
	// ascending within a cluster.
	members [][]int
	// missing lists the objects the clustering has no label for, ascending;
	// mask is the same set as a bitmap (nil when the clustering is
	// complete).
	missing []int
	mask    []bool
	// weight is the clustering's weight in the objective.
	weight float64
}

// blocksOf reshapes the input clusterings into per-cluster member lists and
// missing sets. It reads the Problem's []int views: the caller's slices on
// a NewProblem problem, otherwise unpacked once and cached — on the
// sampling path materialization only ever applies to small subproblems, so
// those views stay proportional to the sample, not n.
func (p *Problem) blocksOf() []clusteringBlocks {
	cs := p.labelViews()
	blocks := make([]clusteringBlocks, len(cs))
	for i, c := range cs {
		b := clusteringBlocks{weight: p.weight(i)}
		k := 0
		for _, l := range c {
			if l >= k {
				k = l + 1
			}
		}
		b.members = make([][]int, k)
		for obj, l := range c {
			if l == partition.Missing {
				if b.mask == nil {
					b.mask = make([]bool, p.n)
				}
				b.mask[obj] = true
				b.missing = append(b.missing, obj)
			} else {
				b.members[l] = append(b.members[l], obj)
			}
		}
		blocks[i] = b
	}
	return blocks
}

// blockAdds returns the number of per-pair block updates the kernel will
// perform for these blocks: co-membership pairs plus pairs with a missing
// endpoint, per clustering.
func blockAdds(n int, blocks []clusteringBlocks) int64 {
	var adds int64
	for _, b := range blocks {
		for _, mem := range b.members {
			adds += int64(len(mem)) * int64(len(mem)-1) / 2
		}
		if z := int64(len(b.missing)); z > 0 {
			present := int64(n) - z
			adds += z*(z-1)/2 + z*present
		}
	}
	return adds
}

// Matrix materializes the pairwise distances into a dense matrix through the
// cluster-block kernel, running on all CPUs for large instances. Algorithms
// that probe distances many times (LOCALSEARCH, FURTHEST) run substantially
// faster on the materialized form; the cost is O(n² + m·Σ_c|c|²) time and
// O(n²) space.
func (p *Problem) Matrix() *corrclust.Matrix {
	return p.materialize(nil, 0)
}

// MatrixWorkers is Matrix with an explicit worker cap (0 means GOMAXPROCS).
func (p *Problem) MatrixWorkers(workers int) *corrclust.Matrix {
	return p.materialize(nil, workers)
}

// materialize is the block-kernel entry point. rec (may be nil) receives
// the materialize.* counters: cells (stored pairs), block_adds (per-pair
// block updates), workers (effective stripe count), and dist_probes —
// registered at zero because the kernel makes no Dist calls, so trajectory
// diffs against the probing build show the drop explicitly. Each build's
// wall time lands in the materialize.seconds latency histogram (SAMPLING
// materializes repeatedly — the core, the recluster, recursive calls — so
// the distribution is worth more than one number).
func (p *Problem) materialize(rec *obs.Recorder, workers int) *corrclust.Matrix {
	if rec != nil {
		start := time.Now()
		defer func() {
			rec.Observe("materialize.seconds", time.Since(start).Seconds())
		}()
	}
	n := p.n
	mx := corrclust.NewMatrix(n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 || n < materializeMinParallel {
		workers = 1
	}
	blocks := p.blocksOf()
	average := p.missingMode == MissingAverage && p.hasMissing(blocks)

	rec.Add("materialize.dist_probes", 0)
	rec.Add("materialize.cells", int64(n)*int64(n-1)/2)
	rec.Add("materialize.block_adds", blockAdds(n, blocks))
	rec.Add("materialize.workers", int64(workers))

	var votes []float64
	var missCnt []int32
	if average {
		votes = make([]float64, int64(n)*int64(n-1)/2)
		missCnt = make([]int32, int64(n)*int64(n-1)/2)
	}

	if workers == 1 {
		p.materializeStripe(mx, blocks, votes, missCnt, 0, 1)
		return mx
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "materialize", Worker: strconv.Itoa(stripe)}, func() {
				p.materializeStripe(mx, blocks, votes, missCnt, stripe, workers)
			})
		}(w)
	}
	wg.Wait()
	return mx
}

// hasMissing reports whether any input clustering has missing labels.
func (p *Problem) hasMissing(blocks []clusteringBlocks) bool {
	for _, b := range blocks {
		if len(b.missing) > 0 {
			return true
		}
	}
	return false
}

// materializeStripe builds rows u ≡ stripe (mod workers) of the matrix.
// votes/missCnt are non-nil only in MissingAverage mode with missing values
// present; without missing values the two modes define the same distance,
// so the coin arithmetic serves both.
func (p *Problem) materializeStripe(mx *corrclust.Matrix, blocks []clusteringBlocks, votes []float64, missCnt []int32, stripe, workers int) {
	n, tw := p.n, p.totalWeight
	average := votes != nil

	// rowBase(u) mirrors the condensed layout so votes/missCnt rows line up
	// with mx.Row(u).
	rowBase := func(u int) int { return u * (2*n - u - 1) / 2 }

	// Seed: every pair starts fully separated — distance weight tw, and in
	// average mode tw vote weight from all clusterings.
	for u := stripe; u < n; u += workers {
		row := mx.Row(u)
		for j := range row {
			row[j] = tw
		}
		if average {
			vrow := votes[rowBase(u) : rowBase(u)+len(row)]
			for j := range vrow {
				vrow[j] = tw
			}
		}
	}

	for _, b := range blocks {
		w := b.weight
		// Co-membership blocks: pairs the clustering places together do not
		// separate, so they give back w.
		for _, mem := range b.members {
			for i, u := range mem {
				if u%workers != stripe {
					continue
				}
				row := mx.Row(u)
				for _, v := range mem[i+1:] {
					row[v-u-1] -= w
				}
			}
		}
		if len(b.missing) == 0 {
			continue
		}
		// Missing adjustments, owner-row form: pair {u,v} (u < v) has a
		// missing endpoint iff u is missing (the whole row tail) or v is a
		// missing object beyond u (pointer walk over the sorted set).
		//
		// Coin model: the pair reports "together" with probability
		// missingP, so of the seeded w only (1-missingP)·w remains.
		// Average model: the clustering abstains — both its distance and
		// vote weight come back, and the pair's miss count advances toward
		// the "missing everywhere" diagnosis.
		sub := p.missingP * w
		if average {
			sub = w
		}
		zi := 0
		for u := stripe; u < n; u += workers {
			for zi < len(b.missing) && b.missing[zi] <= u {
				zi++
			}
			row := mx.Row(u)
			base := rowBase(u)
			if b.mask[u] {
				for j := range row {
					row[j] -= sub
				}
				if average {
					for j := range row {
						votes[base+j] -= w
						missCnt[base+j]++
					}
				}
			} else {
				for _, z := range b.missing[zi:] {
					row[z-u-1] -= sub
				}
				if average {
					for _, z := range b.missing[zi:] {
						votes[base+z-u-1] -= w
						missCnt[base+z-u-1]++
					}
				}
			}
		}
	}

	// Normalize: coin divides by the total weight; average divides by the
	// per-pair vote weight, with the paper's maximally-uncertain 1/2 for
	// pairs missing from every clustering.
	m32 := int32(p.M())
	for u := stripe; u < n; u += workers {
		row := mx.Row(u)
		if !average {
			for j := range row {
				row[j] /= tw
			}
			continue
		}
		base := rowBase(u)
		for j := range row {
			if missCnt[base+j] == m32 {
				row[j] = 0.5
			} else {
				row[j] /= votes[base+j]
			}
		}
	}
}
