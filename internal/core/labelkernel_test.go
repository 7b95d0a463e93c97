package core

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// randMixedProblem builds a random aggregation instance: m clusterings of n
// objects over up to 5 planted labels, each label missing with probability
// pMiss, under the given options.
func randMixedProblem(t testing.TB, rng *rand.Rand, n, m int, pMiss float64, opts ProblemOptions) *Problem {
	t.Helper()
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := make(partition.Labels, n)
		for j := range c {
			if rng.Float64() < pMiss {
				c[j] = partition.Missing
			} else {
				c[j] = rng.Intn(5)
			}
		}
		cs[i] = c
	}
	p, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dyadicWeights returns canned weight vectors whose entries are multiples
// of 1/2 and whose total is a power of two, so aggregation distances stay
// exact dyadic rationals; nil entries mean uniform weights (use with a
// power-of-two m).
func dyadicWeights(m int) []float64 {
	switch m {
	case 2:
		return []float64{0.5, 1.5}
	case 4:
		return []float64{1, 0.5, 1.5, 1}
	case 8:
		return []float64{1, 1, 1, 1, 0.5, 1.5, 0.5, 1.5}
	default:
		return nil
	}
}

// TestLabelKernelDistBitIdentical: the kernel's Dist and DistRowTo (and so
// Problem.Dist) must reproduce the probeDist oracle bit for bit — not
// approximately — on every pair, across both missing modes, weighted and
// uniform problems, and several missing probabilities. The kernel mirrors
// the oracle's float operations in its order, so this holds on arbitrary
// (non-dyadic) instances too.
func TestLabelKernelDistBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(9)
		var opts ProblemOptions
		if trial%3 == 1 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*3
			}
			opts.Weights = w
		}
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		opts.MissingTogether = []float64{0, 0.25, 0.5, 0.37, 0.75}[trial%5]
		pMiss := []float64{0, 0.2, 0.6}[trial%3]
		p := randMixedProblem(t, rng, n, m, pMiss, opts)
		lk := p.kernel()

		if lk.N() != n {
			t.Fatalf("trial %d: kernel N %d, want %d", trial, lk.N(), n)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := probeDist(p, u, v)
				if got := lk.Dist(u, v); got != want {
					t.Fatalf("trial %d: kernel Dist(%d,%d) = %v, probeDist = %v", trial, u, v, got, want)
				}
				if got := p.Dist(u, v); got != want {
					t.Fatalf("trial %d: Problem.Dist(%d,%d) = %v, probeDist = %v", trial, u, v, got, want)
				}
			}
		}

		// DistRowTo on a shuffled target list with diagonal hits included.
		targets := rng.Perm(n)
		dst := make([]float64, n)
		for v := 0; v < n; v++ {
			lk.DistRowTo(v, targets, dst)
			for j, u := range targets {
				if want := probeDist(p, v, u); dst[j] != want {
					t.Fatalf("trial %d: DistRowTo(%d)[%d->%d] = %v, want %v", trial, v, j, u, dst[j], want)
				}
			}
		}
	}
}

// TestColabelHistAffinities: the histogram evaluation of M(v, C_c) must
// match the probing sum Σ_{u∈C_c} probeDist(v,u) — exactly on dyadic instances,
// to float-drift tolerance otherwise.
func TestColabelHistAffinities(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 40; trial++ {
		dyadic := trial%2 == 0
		var m int
		var opts ProblemOptions
		if dyadic {
			m = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
			opts.MissingTogether = []float64{0.25, 0.5, 0.75}[trial%3]
			if w := dyadicWeights(m); rng.Intn(2) == 0 && w != nil {
				opts.Weights = w
			}
		} else {
			m = 1 + rng.Intn(9)
			opts.MissingTogether = rng.Float64()
			if opts.MissingTogether == 0 {
				opts.MissingTogether = 0.5
			}
			if rng.Intn(2) == 0 {
				w := make([]float64, m)
				for i := range w {
					w[i] = 0.25 + rng.Float64()*3
				}
				opts.Weights = w
			}
		}
		n := 10 + rng.Intn(60)
		p := randMixedProblem(t, rng, n, m, 0.3, opts)
		lk := p.kernel()

		// A random "sample clustering" over a random subset of the objects.
		k := 1 + rng.Intn(4)
		members := make([][]int, k)
		for v := 0; v < n/2; v++ {
			c := rng.Intn(k)
			members[c] = append(members[c], v*2) // even objects, ascending
		}
		hasEmpty := false
		for _, mem := range members {
			if len(mem) == 0 {
				hasEmpty = true
			}
		}
		if hasEmpty {
			continue // Sample never produces empty clusters
		}
		hist := lk.buildColabelHist(members)
		got := make([]float64, k)
		for v := 1; v < n; v += 2 {
			hist.affinities(lk, v, got)
			for c, mem := range members {
				var want float64
				for _, u := range mem {
					want += probeDist(p, v, u)
				}
				if dyadic {
					if got[c] != want {
						t.Fatalf("trial %d (dyadic): M(%d,C%d) = %v, probing %v", trial, v, c, got[c], want)
					}
				} else if math.Abs(got[c]-want) > 1e-9 {
					t.Fatalf("trial %d: M(%d,C%d) = %v, probing %v", trial, v, c, got[c], want)
				}
			}
		}
	}
}

// TestSampleKernelMatchesReferenceDyadic: on exact-arithmetic instances
// (power-of-two total weight, dyadic missing probabilities — with missing
// values, dyadic weights, both uniform and weighted) the histogram
// assignment pass must reproduce the probing reference's labels bit for
// bit on the same sample state.
func TestSampleKernelMatchesReferenceDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 20; trial++ {
		m := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		opts := ProblemOptions{MissingTogether: []float64{0.25, 0.5, 0.75}[trial%3]}
		if w := dyadicWeights(m); trial%2 == 1 && w != nil {
			opts.Weights = w
		}
		n := 150 + rng.Intn(200)
		p := randMixedProblem(t, rng, n, m, 0.25, opts)
		s := 30 + rng.Intn(40)

		labels, members := sampleState(t, p, MethodAgglomerative, s, int64(trial))
		got, want := assignBoth(p, labels, members, 2)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (m=%d n=%d): kernel and reference assignments diverge at object %d: %d != %d",
					trial, m, n, i, got[i], want[i])
			}
		}
	}
}

// TestSampleKernelMatchesReferenceAverageMissing: under MissingAverage with
// missing values the kernel keeps per-pair row evaluation (per-pair vote
// denominators do not decompose into histograms), which mirrors the probing
// arithmetic exactly — so labels must match bit for bit even with arbitrary
// non-dyadic weights.
func TestSampleKernelMatchesReferenceAverageMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(7)
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 + rng.Float64()*3
		}
		p := randMixedProblem(t, rng, 200+rng.Intn(100), m, 0.3,
			ProblemOptions{MissingMode: MissingAverage, Weights: w})
		labels, members := sampleState(t, p, MethodBalls, 40, int64(trial))
		got, want := assignBoth(p, labels, members, 2)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: average-mode kernel diverges from reference at %d", trial, i)
			}
		}
	}
}

// TestSampleKernelCloseContinuous: on non-dyadic instances (odd m, random
// weights) the histogram association drifts from the probing sums by ulps,
// so a tie between two assignment options can break differently than under
// probing — but the cluster the kernel picks for each object must still
// cost within 1e-9 of the probing optimum d(v, C_i). The recluster pass is
// disabled so the assignment decisions survive into the returned labels.
func TestSampleKernelCloseContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 10; trial++ {
		m := []int{3, 5, 7, 9}[rng.Intn(4)]
		var opts ProblemOptions
		if trial%2 == 1 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*3
			}
			opts.Weights = w
		}
		n := 250
		const s = 50
		p := randMixedProblem(t, rng, n, m, 0.2, opts)

		got, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
			SampleSize: s, Rand: rand.New(rand.NewSource(int64(trial))), NoSingletonRecluster: true,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Reconstruct the sample clustering: Sample draws rng.Perm(n)[:s],
		// and sample objects keep their cluster through the assignment pass
		// (Normalize only renumbers labels).
		sample := rand.New(rand.NewSource(int64(trial))).Perm(n)[:s]
		inSample := make([]bool, n)
		for _, i := range sample {
			inSample[i] = true
		}
		clusterOf := map[int]int{} // final label -> dense sample-cluster id
		var members [][]int
		for _, i := range sample {
			c, ok := clusterOf[got[i]]
			if !ok {
				c = len(members)
				clusterOf[got[i]] = c
				members = append(members, nil)
			}
			members[c] = append(members[c], i)
		}

		// Every non-sample object's chosen option must be within 1e-9 of
		// the probing optimum over {join C_0..C_{k-1}, fresh singleton}.
		for v := 0; v < n; v++ {
			if inSample[v] {
				continue
			}
			var totalAway float64
			M := make([]float64, len(members))
			for c, mem := range members {
				for _, u := range mem {
					M[c] += probeDist(p, v, u)
				}
				totalAway += float64(len(mem)) - M[c]
			}
			best := totalAway // fresh singleton
			for c := range members {
				if d := M[c] + totalAway - (float64(len(members[c])) - M[c]); d < best {
					best = d
				}
			}
			var chosen float64
			if c, ok := clusterOf[got[v]]; ok {
				chosen = M[c] + totalAway - (float64(len(members[c])) - M[c])
			} else {
				chosen = totalAway
			}
			if chosen-best > 1e-9 {
				t.Fatalf("trial %d (m=%d): object %d assigned at cost %v, probing optimum %v",
					trial, m, v, chosen, best)
			}
		}
	}
}

// TestSampleAssignCounters pins the kernel path's counter contract: the
// bulk sample.assign.dist_probes charge equals the (n−s)·s object/member
// pairs the probing reference evaluates, kernel_cols records the packed
// objects, and hist_builds the per-clustering histogram builds (zero on
// the MissingAverage row route), and the assigned/fresh outcome counters
// match the reference's on the same sample state.
func TestSampleAssignCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	const n, s = 400, 60
	run := func(p *Problem) map[string]int64 {
		rec := obs.New()
		_, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
			SampleSize: s, Rand: rand.New(rand.NewSource(5)),
			NoSingletonRecluster: true, // keep one assignment pass, no recursion
			Recorder:             rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Counters()
	}

	p := randMixedProblem(t, rng, n, 8, 0.2, ProblemOptions{})
	kerC := run(p)
	if kerC["sample.assign.dist_probes"] != int64(n-s)*int64(s) {
		t.Errorf("kernel bulk probes = %d, want %d", kerC["sample.assign.dist_probes"], int64(n-s)*int64(s))
	}
	if kerC["sample.assign.kernel_cols"] != n {
		t.Errorf("kernel_cols = %d, want %d", kerC["sample.assign.kernel_cols"], n)
	}
	if kerC["sample.assign.hist_builds"] != 8 {
		t.Errorf("hist_builds = %d, want 8", kerC["sample.assign.hist_builds"])
	}
	labels, members := sampleState(t, p, MethodAgglomerative, s, 5)
	assigned, fresh := assignReference(p, labels, members)
	if kerC["sample.assigned"] != assigned || kerC["sample.fresh_singletons"] != fresh {
		t.Errorf("kernel assigned/fresh = %d/%d, reference %d/%d",
			kerC["sample.assigned"], kerC["sample.fresh_singletons"], assigned, fresh)
	}

	// MissingAverage with missing values takes the row route: histograms
	// are registered at zero, probes still bulk-charged.
	avgC := run(randMixedProblem(t, rng, n, 8, 0.2, ProblemOptions{MissingMode: MissingAverage}))
	if avgC["sample.assign.hist_builds"] != 0 {
		t.Errorf("average-mode hist_builds = %d, want 0", avgC["sample.assign.hist_builds"])
	}
	if avgC["sample.assign.dist_probes"] != int64(n-s)*int64(s) {
		t.Errorf("average-mode probes = %d, want %d", avgC["sample.assign.dist_probes"], int64(n-s)*int64(s))
	}
}

// FuzzLabelKernelEquiv drives DistRowTo and Dist against probeDist on
// fuzzer-chosen instances — both missing modes, weighted and uniform,
// arbitrary missing probabilities — requiring bit-for-bit equality.
func FuzzLabelKernelEquiv(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint8(2), false)
	f.Add(int64(2), uint8(50), uint8(7), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(5), uint8(1), uint8(0), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, modeRaw, pSel uint8, weighted bool) {
		n := 2 + int(nRaw)%80
		m := 1 + int(mRaw)%10
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		opts.MissingTogether = []float64{0, 0.25, 0.5, 0.75, rng.Float64()}[pSel%5]
		if opts.MissingTogether == 0 && pSel%5 == 4 {
			opts.MissingTogether = 0.5
		}
		if weighted {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*4
			}
			opts.Weights = w
		}
		p := randMixedProblem(t, rng, n, m, 0.3, opts)
		lk := p.kernel()

		targets := rng.Perm(n)
		dst := make([]float64, n)
		for v := 0; v < n; v++ {
			lk.DistRowTo(v, targets, dst)
			for j, u := range targets {
				want := probeDist(p, v, u)
				if dst[j] != want {
					t.Fatalf("DistRowTo(%d)[->%d] = %v, probeDist = %v (n=%d m=%d mode=%d)",
						v, u, dst[j], want, n, m, opts.MissingMode)
				}
				if got := lk.Dist(v, u); got != want {
					t.Fatalf("kernel Dist(%d,%d) = %v, probeDist = %v", v, u, got, want)
				}
			}
		}
	})
}
