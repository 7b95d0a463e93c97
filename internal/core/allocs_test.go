package core

import (
	"math/rand"
	"runtime"
	"testing"

	"clusteragg/internal/partition"
)

// pinAllocs asserts the steady-state allocation count of f. Parallel tests
// and AllocsPerRun don't mix (other goroutines' allocations leak into the
// count), so these tests stay serial.
func pinAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(50, f); got > want {
		t.Errorf("%s: %v allocs/op, want ≤ %v", name, got, want)
	}
}

// TestAssignScratchAllocs pins the buffer-pooling satellite: the pooled
// per-worker scratch (pool.go) reaches a zero-allocation steady state, so
// the assignment hot loop in assignChunk costs no per-stripe
// garbage once the pool is warm.
func TestAssignScratchAllocs(t *testing.T) {
	// Warm the pool past the sizes the loop below requests.
	bp, _ := getF64(8192)
	putF64(bp)
	pinAllocs(t, "pooled f64 scratch", 0, func() {
		p, s := getF64(4096)
		s[0] = 1
		s[4095] = 2
		putF64(p)
	})
	// A growth request re-allocates once, then the bigger buffer is reused.
	big, _ := getF64(1 << 16)
	putF64(big)
	pinAllocs(t, "pooled f64 scratch (grown)", 0, func() {
		p, s := getF64(1 << 16)
		s[0] = 1
		putF64(p)
	})
}

// TestKernelDistAllocs pins the kernel's per-pair and per-row distance
// paths at zero steady-state allocations: Dist, DistRowTo into a caller
// buffer, and histogram affinities into a caller buffer. These run once
// per object inside the assignment loops, so any allocation here scales
// with n.
func TestKernelDistAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	p := randMixedProblem(t, rng, 512, 4, 0.1, ProblemOptions{MissingTogether: 0.5})
	lk := p.kernel()

	pinAllocs(t, "Dist", 0, func() {
		_ = lk.Dist(3, 200)
	})

	targets := make([]int, 64)
	for i := range targets {
		targets[i] = i * 7
	}
	dst := make([]float64, len(targets))
	pinAllocs(t, "DistRowTo", 0, func() {
		lk.DistRowTo(9, targets, dst)
	})

	members := [][]int{targets[:20], targets[20:45], targets[45:]}
	hist := lk.buildColabelHist(members)
	aff := make([]float64, len(members))
	pinAllocs(t, "affinities", 0, func() {
		hist.affinities(lk, 11, aff)
	})
}

// TestPackedUnpackAllocs pins the packed row accessor: unpacking one
// object's labels into a caller buffer allocates nothing, so packed
// problems can feed row-oriented consumers without per-object garbage.
func TestPackedUnpackAllocs(t *testing.T) {
	b := NewPackedColumns(256, 3)
	col := make([]int, 256)
	for ci := 0; ci < 3; ci++ {
		for i := range col {
			if i%17 == 0 {
				col[i] = partition.Missing
			} else {
				col[i] = (i + ci) % 9
			}
		}
		if err := b.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dst := make(partition.Labels, 3)
	pinAllocs(t, "unpackInto", 0, func() {
		pc.unpackInto(100, dst)
	})
	// A view allocates exactly its header — never a label copy, whose
	// count would scale with the range.
	pinAllocs(t, "view", 1, func() {
		_ = pc.view(64, 192)
	})
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call (worker goroutines' allocations included).
func allocBytes(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestObjectiveAllocs pins the objective's memory: Disagreement allocates
// O(n + k + L) bytes (buckets, one gathered column, one label tally) and
// LowerBound O(n + workers·d) bytes for d distinct rows (an int32
// permutation sort plus an m-byte copy of each row) — never a per-pair
// buffer, a per-row string key, or a per-clustering table.
func TestObjectiveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	const n, m, k = 4000, 6, 40
	p := randMixedProblem(t, rng, n, m, 0.05, ProblemOptions{})
	labels := make(partition.Labels, n)
	for v := range labels {
		labels[v] = rng.Intn(k)
	}
	lk := p.kernel()
	var bound int
	for _, b := range lk.maxLab {
		bound = max(bound, int(b))
	}
	want := uint64(16*(n+k+bound) + 4096)
	if got := allocBytes(5, func() { p.Disagreement(labels) }); got > want {
		t.Errorf("Disagreement allocates %d bytes, want ≤ %d = O(n + k + L)", got, want)
	}
	d := len(func() []int32 { _, _, cnt := distinctRows(lk.lab8, lk.hasMiss, n, m); return cnt }())
	if d < n/4 {
		t.Fatalf("only %d distinct rows; the instance does not exercise the row dedup", d)
	}
	for _, workers := range []int{1, 4} {
		want := uint64(12*n + 8*workers*d + 8192)
		if got := allocBytes(3, func() { lk.lowerBound(nil, workers) }); got > want {
			t.Errorf("LowerBound at %d workers allocates %d bytes (d=%d), want ≤ %d = O(n + workers·d)", workers, got, d, want)
		}
	}
}
