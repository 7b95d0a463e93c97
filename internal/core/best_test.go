package core

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// slowBest is the reference O(m²·n²) implementation, scoring every
// candidate with the test-side pair scan over probeDist.
func slowBest(p *Problem) (partition.Labels, int, float64) {
	bestIdx, bestD := -1, 0.0
	var best partition.Labels
	for i, c := range p.Clusterings() {
		cand := completeMissing(c)
		d := scanDisagreement(p, cand)
		if bestIdx == -1 || d < bestD {
			bestIdx, bestD, best = i, d, cand
		}
	}
	return best, bestIdx, bestD
}

func TestBestClusteringFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(15)
		m := 2 + rng.Intn(6)
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(4)
			}
			cs[i] = c
		}
		var opts ProblemOptions
		if trial%2 == 1 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.5 + rng.Float64()*3
			}
			opts.Weights = w
		}
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		fastL, fastI, fastD := p.bestClustering(rec, 0)
		if probes := rec.Counters()["bestclustering.dist_probes"]; probes != 0 {
			t.Fatalf("trial %d: missing-free inputs took the pair scan (%d probes)", trial, probes)
		}
		slowL, slowI, slowD := slowBest(p)
		if math.Abs(fastD-slowD) > 1e-6 {
			t.Fatalf("trial %d: fast D %v != slow D %v", trial, fastD, slowD)
		}
		// Indices may differ only on exact ties.
		if fastI != slowI {
			dFast := p.Disagreement(p.Clusterings()[fastI].Normalize())
			dSlow := p.Disagreement(p.Clusterings()[slowI].Normalize())
			if math.Abs(dFast-dSlow) > 1e-6 {
				t.Fatalf("trial %d: fast picked %d (%v), slow %d (%v)", trial, fastI, dFast, slowI, dSlow)
			}
		}
		if len(fastL) != len(slowL) {
			t.Fatalf("trial %d: label lengths differ", trial)
		}
	}
}

func TestBestClusteringMissingUsesSlowPath(t *testing.T) {
	p, err := NewProblem([]partition.Labels{
		{0, 0, partition.Missing},
		{0, 1, 1},
	}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labels, idx, d := p.BestClustering()
	if _, wantIdx, wantD := slowBest(p); idx != wantIdx || math.Abs(d-wantD) > 1e-9 {
		t.Fatalf("BestClustering picked %d (%v), the pair scan %d (%v)", idx, d, wantIdx, wantD)
	}
	for _, l := range labels {
		if l == partition.Missing {
			t.Fatal("missing label leaked into result")
		}
	}
	// MissingAverage has no per-clustering decomposition: with missing
	// labels present, its candidates take the pair scan.
	avg, err := NewProblem(p.Clusterings(), ProblemOptions{MissingMode: MissingAverage})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	_, idx, d = avg.bestClustering(rec, 0)
	if _, wantIdx, wantD := slowBest(avg); idx != wantIdx || math.Abs(d-wantD) > 1e-9 {
		t.Fatalf("MissingAverage: BestClustering picked %d (%v), the pair scan %d (%v)", idx, d, wantIdx, wantD)
	}
	if rec.Counters()["bestclustering.dist_probes"] == 0 {
		t.Error("MissingAverage with missing labels did not take the pair scan")
	}
}

func BenchmarkBestClusteringFast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, m := 2000, 12
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := make(partition.Labels, n)
		for j := range c {
			c[j] = rng.Intn(6)
		}
		cs[i] = c
	}
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BestClustering()
	}
}

// TestBestClusteringWorkersIdentical: scoring the candidates on parallel
// workers must yield the same labels, index, and disagreement
// for every worker count — the reduction runs sequentially in input order,
// preserving tie-breaking by index.
func TestBestClusteringWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 4; trial++ {
		n := 50 + rng.Intn(100)
		m := 8 + rng.Intn(8)
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(5)
			}
			cs[i] = c
		}
		var opts ProblemOptions
		if trial%2 == 1 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.5 + rng.Float64()*3
			}
			opts.Weights = w
		}
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		baseL, baseI, baseD := p.bestClustering(nil, 0)
		for _, workers := range []int{1, 2, 3, 8} {
			l, i, d := p.bestClustering(nil, workers)
			if i != baseI || d != baseD {
				t.Fatalf("trial %d: Workers=%d picked (%d, %v), Workers=0 picked (%d, %v)",
					trial, workers, i, d, baseI, baseD)
			}
			for j := range l {
				if l[j] != baseL[j] {
					t.Fatalf("trial %d: Workers=%d labels diverge at %d", trial, workers, j)
				}
			}
		}
		// The aggregation entry point must thread Workers through too.
		aggBase, err := p.Aggregate(MethodBest, AggregateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		agg8, err := p.Aggregate(MethodBest, AggregateOptions{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for j := range agg8 {
			if agg8[j] != aggBase[j] {
				t.Fatalf("trial %d: Aggregate(MethodBest) diverges at %d with Workers=8", trial, j)
			}
		}
	}
}
