package core

import (
	"math/rand"
	"testing"

	"clusteragg/internal/partition"
)

// plantedProblem builds m noisy copies of a planted clustering with kTrue
// equal-size clusters over n objects: each copy reassigns a fraction noise
// of the objects to random clusters.
func plantedProblem(t testing.TB, rng *rand.Rand, n, kTrue, m int, noise float64) (*Problem, partition.Labels) {
	t.Helper()
	truth := make(partition.Labels, n)
	for i := range truth {
		truth[i] = i % kTrue
	}
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := truth.Clone()
		for j := range c {
			if rng.Float64() < noise {
				c[j] = rng.Intn(kTrue)
			}
		}
		cs[i] = c
	}
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, truth
}

func TestSampleValidOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	p, _ := plantedProblem(t, rng, 300, 4, 7, 0.15)
	for _, method := range []Method{MethodAgglomerative, MethodFurthest, MethodBalls} {
		labels, err := p.Sample(method, AggregateOptions{}, SamplingOptions{
			SampleSize: 60,
			Rand:       rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(labels) != p.N() {
			t.Fatalf("%v: %d labels, want %d", method, len(labels), p.N())
		}
		if err := labels.Validate(); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for i, v := range labels {
			if v == partition.Missing {
				t.Fatalf("%v: object %d unassigned", method, i)
			}
		}
		if !labels.IsNormalized() {
			t.Fatalf("%v: labels not normalized", method)
		}
	}
}

func TestSampleRecoversPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	p, truth := plantedProblem(t, rng, 400, 4, 9, 0.1)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 80,
		Rand:       rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := partition.RandIndex(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ri < 0.95 {
		t.Errorf("sampled aggregation Rand index %v, want >= 0.95 (k found %d)", ri, labels.K())
	}
}

func TestSampleCloseToFullAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	p, _ := plantedProblem(t, rng, 250, 3, 5, 0.1)
	full, err := p.Aggregate(MethodAgglomerative, AggregateOptions{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 70,
		Rand:       rand.New(rand.NewSource(13)),
	})
	if err != nil {
		t.Fatal(err)
	}
	fullD, sampD := p.Disagreement(full), p.Disagreement(sampled)
	if sampD > 1.25*fullD {
		t.Errorf("sampled disagreement %v more than 25%% above full %v", sampD, fullD)
	}
}

func TestSampleSizeLargerThanNFallsBack(t *testing.T) {
	p := figure1Problem(t)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Disagreement(labels); d != 5 {
		t.Errorf("fallback aggregation disagreement %v, want 5", d)
	}
}

func TestSampleNegativeSize(t *testing.T) {
	p := figure1Problem(t)
	if _, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{SampleSize: -1}); err == nil {
		t.Error("negative sample size accepted")
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	p, _ := plantedProblem(t, rng, 200, 3, 5, 0.2)
	a, err := p.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
		SampleSize: 50, Rand: rand.New(rand.NewSource(21)),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
		SampleSize: 50, Rand: rand.New(rand.NewSource(21)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different clusterings at %d", i)
		}
	}
}

func TestSampleNoSingletonRecluster(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	p, _ := plantedProblem(t, rng, 150, 3, 5, 0.3)
	labels, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
		SampleSize:           30,
		Rand:                 rand.New(rand.NewSource(23)),
		NoSingletonRecluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != p.N() {
		t.Fatalf("%d labels, want %d", len(labels), p.N())
	}
}

func TestAutoSampleSize(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 14}, // ceil(20*ln 2) = 14, capped at n=2 -> 2
	}
	_ = tests
	if got := autoSampleSize(1); got != 1 {
		t.Errorf("autoSampleSize(1) = %d, want 1", got)
	}
	if got := autoSampleSize(2); got != 2 {
		t.Errorf("autoSampleSize(2) = %d (capped), want 2", got)
	}
	if got := autoSampleSize(100000); got < 200 || got > 300 {
		t.Errorf("autoSampleSize(1e5) = %d, want ~230", got)
	}
	// Auto size used when SampleSize is zero.
	rng := rand.New(rand.NewSource(127))
	p, _ := plantedProblem(t, rng, 500, 3, 5, 0.1)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		Rand: rand.New(rand.NewSource(29)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 500 {
		t.Fatalf("auto-size sample returned %d labels", len(labels))
	}
}

// TestSampleWorkersIdentical: the assignment phase stripes objects across
// workers, but every object's decision is independent of scheduling, so the
// returned clustering must be bit-identical for every worker count — on
// instances with missing values and non-uniform weights, under both missing
// modes.
func TestSampleWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 6; trial++ {
		m := 3 + rng.Intn(6)
		opts := ProblemOptions{MissingTogether: 0.25 + 0.5*rng.Float64()}
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 + rng.Float64()*3
		}
		opts.Weights = w
		p := randMixedProblem(t, rng, 300+rng.Intn(200), m, 0.25, opts)

		var base partition.Labels
		for _, workers := range []int{0, 1, 2, 3, 8} {
			labels, err := p.Sample(MethodAgglomerative, AggregateOptions{Workers: workers}, SamplingOptions{
				SampleSize: 60, Rand: rand.New(rand.NewSource(int64(trial))),
			})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = labels
				continue
			}
			for i := range labels {
				if labels[i] != base[i] {
					t.Fatalf("trial %d: Workers=%d diverges from Workers=0 at object %d",
						trial, workers, i)
				}
			}
		}
	}
}
