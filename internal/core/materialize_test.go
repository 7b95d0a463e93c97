package core

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

// genProblem builds a seeded random problem. missFrac > 0 injects missing
// labels; weights selects uniform (0), dyadic (1: multiples of 1/4), or
// arbitrary float (2) clustering weights; missingP must be left 0 for the
// default 1/2.
func genProblem(t testing.TB, seed int64, n, m int, missFrac float64, weights int, mode MissingMode, missingP float64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cs := make([]partition.Labels, m)
	for i := range cs {
		k := 1 + rng.Intn(6)
		c := make(partition.Labels, n)
		for j := range c {
			if rng.Float64() < missFrac {
				c[j] = partition.Missing
			} else {
				c[j] = rng.Intn(k)
			}
		}
		cs[i] = c
	}
	opts := ProblemOptions{MissingMode: mode, MissingTogether: missingP}
	switch weights {
	case 1: // dyadic: exact in float64, so block and naive sums agree bitwise
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 * float64(1+rng.Intn(8))
		}
		opts.Weights = w
	case 2:
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.1 + rng.Float64()
		}
		opts.Weights = w
	}
	p, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// naiveMatrix is the reference build: one Dist probe per pair.
func naiveMatrix(p *Problem) *corrclust.Matrix {
	return corrclust.MatrixFromInstance(p)
}

func compareMatrices(t *testing.T, name string, p *Problem, got *corrclust.Matrix, eps float64) {
	t.Helper()
	n := p.N()
	want := naiveMatrix(p)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g, w := got.Dist(u, v), want.Dist(u, v)
			if eps == 0 {
				if g != w {
					t.Fatalf("%s: X(%d,%d) = %v (block), %v (naive): not bit-identical", name, u, v, g, w)
				}
			} else if math.Abs(g-w) > eps {
				t.Fatalf("%s: X(%d,%d) = %v (block), %v (naive): |diff| > %v", name, u, v, g, w, eps)
			}
		}
	}
}

// TestMaterializeMatchesNaive: the block kernel reproduces the probing build
// bit-for-bit whenever the arithmetic is exact — uniform or dyadic weights,
// dyadic missing probability, both missing modes, with and without missing
// labels — because both formulations then sum the same dyadic rationals.
func TestMaterializeMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		missFrac float64
		weights  int
		mode     MissingMode
		missingP float64
	}{
		{"complete/uniform", 0, 0, MissingCoin, 0},
		{"complete/dyadic-weights", 0, 1, MissingCoin, 0},
		{"complete/average", 0, 0, MissingAverage, 0},
		{"missing/coin-half", 0.2, 0, MissingCoin, 0},
		{"missing/coin-quarter", 0.2, 0, MissingCoin, 0.25},
		{"missing/coin-dyadic-weights", 0.2, 1, MissingCoin, 0},
		{"missing/average", 0.2, 0, MissingAverage, 0},
		{"missing/average-dyadic-weights", 0.2, 1, MissingAverage, 0},
		{"missing/heavy-average", 0.6, 0, MissingAverage, 0},
		{"missing/all-missing-row", 0.95, 0, MissingAverage, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				p := genProblem(t, 100+seed, 3+int(seed)*7, 1+int(seed%5), tc.missFrac, tc.weights, tc.mode, tc.missingP)
				compareMatrices(t, tc.name, p, p.Matrix(), 0)
			}
		})
	}
}

// TestMaterializeArbitraryWeights: with arbitrary float weights the two
// formulations associate additions differently, so equality holds only up
// to rounding.
func TestMaterializeArbitraryWeights(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
			p := genProblem(t, 200+seed, 40, 6, 0.2, 2, mode, 0)
			compareMatrices(t, "arbitrary-weights", p, p.Matrix(), 1e-12)
		}
	}
}

// TestMaterializeLabelPermutationInvariance: the matrix depends only on the
// partitions, not on how their clusters happen to be numbered.
func TestMaterializeLabelPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := genProblem(t, 7, 50, 4, 0.15, 0, MissingCoin, 0)
	base := p.Matrix()

	perm := make([]partition.Labels, len(p.Clusterings()))
	for i, c := range p.Clusterings() {
		k := 0
		for _, l := range c {
			if l >= k {
				k = l + 1
			}
		}
		mapping := rng.Perm(k)
		pc := make(partition.Labels, len(c))
		for j, l := range c {
			if l == partition.Missing {
				pc[j] = partition.Missing
			} else {
				pc[j] = mapping[l]
			}
		}
		perm[i] = pc
	}
	pp, err := NewProblem(perm, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := pp.Matrix()
	for u := 0; u < p.N(); u++ {
		for v := u + 1; v < p.N(); v++ {
			if got.Dist(u, v) != base.Dist(u, v) {
				t.Fatalf("X(%d,%d) changed under cluster relabeling: %v vs %v", u, v, got.Dist(u, v), base.Dist(u, v))
			}
		}
	}
}

// TestMaterializeWorkersBitIdentical: every worker count yields the same
// bits, because each row's updates run in a fixed order regardless of which
// stripe owns it. n is above materializeMinParallel so the goroutine path
// actually engages.
func TestMaterializeWorkersBitIdentical(t *testing.T) {
	for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
		p := genProblem(t, 3, 300, 5, 0.2, 2, mode, 0)
		seq := p.MatrixWorkers(1)
		for _, workers := range []int{2, 3, 8} {
			par := p.MatrixWorkers(workers)
			for u := 0; u < p.N(); u++ {
				for v := u + 1; v < p.N(); v++ {
					if seq.Dist(u, v) != par.Dist(u, v) {
						t.Fatalf("mode %v workers=%d: X(%d,%d) = %v, sequential %v", mode, workers, u, v, par.Dist(u, v), seq.Dist(u, v))
					}
				}
			}
		}
	}
}

// FuzzMaterialize drives the block kernel against the probing build on
// fuzzer-chosen shapes: bit-identical in the exact regimes, 1e-12-close with
// arbitrary weights.
func FuzzMaterialize(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(30), uint8(5), uint8(60), uint8(1), true)
	f.Add(int64(3), uint8(17), uint8(1), uint8(255), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, missRaw, weightsRaw uint8, avg bool) {
		n := 2 + int(nRaw)%60
		m := 1 + int(mRaw)%8
		missFrac := float64(missRaw) / 255
		weights := int(weightsRaw) % 3
		mode := MissingCoin
		if avg {
			mode = MissingAverage
		}
		p := genProblem(t, seed, n, m, missFrac, weights, mode, 0)
		eps := 0.0
		if weights == 2 {
			eps = 1e-12
		}
		compareMatrices(t, "fuzz", p, p.Matrix(), eps)
	})
}

// TestBestOfParallelMatchesSequential: racing the methods concurrently must
// return exactly the sequential outcome — same winner, same labels — for
// every worker count, including with the randomized extension methods in
// the field.
func TestBestOfParallelMatchesSequential(t *testing.T) {
	p := recorderProblem(t, 90, 5, 17)
	methods := append(Methods(), ExtensionMethods()...)
	run := func(workers int) (partition.Labels, Method) {
		t.Helper()
		labels, winner, err := p.BestOf(methods, AggregateOptions{
			Materialize: true,
			Workers:     workers,
			Rand:        rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return labels, winner
	}
	seqLabels, seqWinner := run(1)
	for _, workers := range []int{0, 2, 4, 16} {
		labels, winner := run(workers)
		if winner != seqWinner {
			t.Fatalf("workers=%d: winner %v, sequential %v", workers, winner, seqWinner)
		}
		sameLabels(t, "bestof-parallel", seqLabels, labels)
	}
}

// TestSampleParallelMatchesSequential: the striped assignment pass must
// reproduce the sequential labeling exactly. n clears the parallel gate so
// the goroutine path actually runs.
func TestSampleParallelMatchesSequential(t *testing.T) {
	p := recorderProblem(t, 400, 4, 23)
	run := func(workers int) partition.Labels {
		t.Helper()
		labels, err := p.Sample(MethodAgglomerative,
			AggregateOptions{Workers: workers},
			SamplingOptions{SampleSize: 60, Rand: rand.New(rand.NewSource(2))})
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	seq := run(1)
	for _, workers := range []int{0, 3, 8} {
		sameLabels(t, "sample-parallel", seq, run(workers))
	}
}
