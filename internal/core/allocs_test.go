package core

import (
	"math/rand"
	"runtime"
	"testing"

	"clusteragg/internal/obs"
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
// the assignment's decide blocks cost no per-block garbage once the pool
// is warm.
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
// permutation sort plus an m-byte copy of each row, then per worker one
// row permutation on the lattice route) — never a per-pair buffer, a
// per-row string key, or a per-clustering table. The lower-bound budget
// holds on both routes: m = 6 takes the lattice, m = 16 the row-pair scan.
// The row copy is m·d bytes, so the wide instance repeats its rows.
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
	protos := make([][]int, 1200)
	for r := range protos {
		protos[r] = make([]int, 16)
		for i := range protos[r] {
			if rng.Float64() < 0.05 {
				protos[r][i] = partition.Missing
			} else {
				protos[r][i] = rng.Intn(5)
			}
		}
	}
	cs := make([]partition.Labels, 16)
	for i := range cs {
		cs[i] = make(partition.Labels, n)
	}
	for v := 0; v < n; v++ {
		row := protos[rng.Intn(len(protos))]
		for i, c := range cs {
			c[v] = row[i]
		}
	}
	wide, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p     *Problem
		route string
	}{{p, "evaluate.lattice_groups"}, {wide, "evaluate.row_pairs"}} {
		lk := tc.p.kernel()
		d := len(func() []int32 { _, cnt, _ := distinctRows(lk.lab8, n, lk.m); return cnt }())
		if d < n/4 {
			t.Fatalf("m=%d: only %d distinct rows; the instance does not exercise the row dedup", lk.m, d)
		}
		rec := obs.New()
		lk.lowerBound(rec, 1)
		if _, ok := rec.Counters()[tc.route]; !ok {
			t.Fatalf("m=%d: LowerBound did not record %s: wrong route", lk.m, tc.route)
		}
		for _, workers := range []int{1, 4} {
			want := uint64(12*n + 8*workers*d + 8192)
			if got := allocBytes(3, func() { lk.lowerBound(nil, workers) }); got > want {
				t.Errorf("m=%d: LowerBound at %d workers allocates %d bytes (d=%d), want ≤ %d = O(n + workers·d)", lk.m, workers, got, d, want)
			}
		}
	}
}

// TestAssignKernelAllocs pins the assignment pass's memory to the sample
// state and the distinct rows, never to n: the row index is an int32 table
// kept at most half full plus one int32 exemplar per distinct row (≤ 48
// bytes per row over all its doublings), the co-label histograms take
// 8·m·(L+2)·k bytes, and object ids are parked in labels. The instance
// repeats at most 500 planted rows over n = 200k objects, so even a
// 1-byte-per-object side array breaks the budget.
func TestAssignKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1409))
	const n, m = 200_000, 6
	protos := make([][]int, 500) // group r%32 in every clustering, 10% noise
	for r := range protos {
		protos[r] = make([]int, m)
		for i := range protos[r] {
			protos[r][i] = r % 32
			if rng.Float64() < 0.1 {
				protos[r][i] = rng.Intn(34)
			}
		}
	}
	rows := make([][]int, n)
	for v := range rows {
		rows[v] = protos[rng.Intn(len(protos))]
	}
	p := rowsProblem(t, rows, ProblemOptions{})
	labels, members := sampleState(t, p, MethodBalls, autoSampleSize(n), 7)
	d, k := int(nonSampleRows(p, labels)), len(members)
	var bound int
	for _, b := range p.kernel().maxLab {
		bound = max(bound, int(b))
	}
	work := make(partition.Labels, n)
	for _, workers := range []int{1, 4} {
		want := uint64(64*d + 8*m*(bound+3)*k + 8*workers*k + 8192)
		if want >= n {
			t.Fatalf("budget %d bytes does not sit below n = %d", want, n)
		}
		got := allocBytes(3, func() {
			copy(work, labels)
			p.assignKernel(nil, nil, work, members, workers)
		})
		if got > want {
			t.Errorf("assignKernel at %d workers allocates %d bytes (d=%d, k=%d), want ≤ %d = O(d + m·L·k)", workers, got, d, k, want)
		}
	}
}

// TestMatrixWideLabelAllocs pins materialization's memory to the matrix and
// the inputs, never to the label alphabet: clusterings relabeled ×70000
// build the same matrix bit for bit, in both missing modes, within the
// matrix's own bytes (8 per pair, plus the average mode's 12 bytes of votes
// and miss counts) and O(n·m) for the member lists — a member table sized
// by the largest label (24 bytes per label value per clustering) breaks it.
func TestMatrixWideLabelAllocs(t *testing.T) {
	const n, m = 300, 6
	pairs := n * (n - 1) / 2
	for _, tc := range []struct {
		opts    ProblemOptions
		perPair int
	}{
		{ProblemOptions{MissingTogether: 0.5}, 8},
		{ProblemOptions{MissingMode: MissingAverage}, 20},
	} {
		p := randMixedProblem(t, rand.New(rand.NewSource(1413)), n, m, 0.2, tc.opts)
		wide := widenLabels(t, p, 70000)
		want, got := p.Matrix(), wide.Matrix()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if g, w := got.Dist(u, v), want.Dist(u, v); g != w {
					t.Fatalf("mode %v: X(%d,%d) = %v on wide labels, %v on narrow", tc.opts.MissingMode, u, v, g, w)
				}
			}
		}
		budget := uint64(tc.perPair*pairs + 64*n*m + 8192)
		if b := allocBytes(3, func() { wide.Matrix() }); b > budget {
			t.Errorf("mode %v: Matrix on ×70000 labels allocates %d bytes, want ≤ %d = O(n² + n·m)", tc.opts.MissingMode, b, budget)
		}
	}
}
