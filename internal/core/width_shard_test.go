package core

import (
	"math/rand"
	"testing"
	"time"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// widenLabels rebuilds p with every present label multiplied by factor: an
// injective relabeling, so the partition structure — and therefore every
// distance and every aggregation result — is unchanged, while the label
// bound grows past the uint8/uint16 sentinel thresholds and forces the
// kernel onto a wider packing (and, past histBoundCap, onto the
// sample-observed histogram bound rescan).
func widenLabels(t testing.TB, p *Problem, factor int) *Problem {
	t.Helper()
	cs := make([]partition.Labels, len(p.Clusterings()))
	for i, c := range p.Clusterings() {
		wc := make(partition.Labels, len(c))
		for j, l := range c {
			if l == partition.Missing {
				wc[j] = partition.Missing
			} else {
				wc[j] = l * factor
			}
		}
		cs[i] = wc
	}
	opts := ProblemOptions{
		Weights:         p.weights,
		MissingMode:     p.missingMode,
		MissingTogether: p.missingP,
	}
	wp, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// TestKernelWidthSelection pins the build-time width choice: the narrowest
// width whose all-ones sentinel stays clear of every stored label.
func TestKernelWidthSelection(t *testing.T) {
	mk := func(maxLabel int) *Problem {
		p, err := NewProblem([]partition.Labels{{0, maxLabel}}, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		maxLabel, want int
	}{
		{1, width8},
		{254, width8},  // bound 255: sentinel 255 still free
		{255, width16}, // bound 256: label 255 would collide with the sentinel
		{65534, width16},
		{65535, width32},
		{70000, width32},
	}
	for _, c := range cases {
		if lk := mk(c.maxLabel).kernel(); lk.width != c.want {
			t.Errorf("max label %d: width %d, want %d", c.maxLabel, lk.width, c.want)
		}
	}
	// Forcing a width below the label bound is a programming error.
	defer func() {
		if recover() == nil {
			t.Error("kernelWidth(width8) on a 16-bit instance did not panic")
		}
	}()
	mk(300).kernelWidth(width8)
}

// TestLabelKernelWidthsBitIdentical: all three storage widths must produce
// bit-identical distances and histogram affinities — the packed loops never
// let the width touch a float. Each trial compares the auto (uint8) kernel
// against forced uint16 and int32 kernels on Dist, DistRowTo, and the
// co-label histogram path, across both missing modes and weights.
func TestLabelKernelWidthsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		m := 1 + rng.Intn(8)
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
		opts.MissingTogether = []float64{0.25, 0.5, 0.37}[trial%3]
		p := randMixedProblem(t, rng, n, m, 0.3, opts)

		base := p.kernelWidth(0)
		if base.width != width8 {
			t.Fatalf("trial %d: auto width %d, want uint8 for labels < 5", trial, base.width)
		}
		wide16 := p.kernelWidth(width16)
		wide32 := p.kernelWidth(width32)

		targets := rng.Perm(n)
		want := make([]float64, n)
		got := make([]float64, n)
		for v := 0; v < n; v++ {
			base.DistRowTo(v, targets, want)
			for _, lk := range []*labelKernel{wide16, wide32} {
				lk.DistRowTo(v, targets, got)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("trial %d: width-%d DistRowTo(%d)[->%d] = %v, width-1 = %v",
							trial, lk.width, v, targets[j], got[j], want[j])
					}
				}
				if d := lk.Dist(v, targets[0]); d != base.Dist(v, targets[0]) {
					t.Fatalf("trial %d: width-%d Dist diverges", trial, lk.width)
				}
			}
		}

		// Histogram affinities across widths (skip the regime that has no
		// histograms; the row route above already covers it).
		if base.average && base.anyMiss {
			continue
		}
		k := 1 + rng.Intn(4)
		members := make([][]int, k)
		for v := 0; v < n; v += 2 {
			c := rng.Intn(k)
			members[c] = append(members[c], v)
		}
		ok := true
		for _, mem := range members {
			if len(mem) == 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		wantM := make([]float64, k)
		gotM := make([]float64, k)
		baseHist := base.buildColabelHist(members)
		for _, lk := range []*labelKernel{wide16, wide32} {
			hist := lk.buildColabelHist(members)
			for v := 1; v < n; v += 2 {
				baseHist.affinities(base, v, wantM)
				hist.affinities(lk, v, gotM)
				for c := range gotM {
					if gotM[c] != wantM[c] {
						t.Fatalf("trial %d: width-%d M(%d,C%d) = %v, width-1 = %v",
							trial, lk.width, v, c, gotM[c], wantM[c])
					}
				}
			}
		}
	}
}

// TestLabelKernelWideLabelsBitIdentical: instances whose labels genuinely
// need the wider widths (auto-selected uint16 and int32, the latter past
// histBoundCap so the histograms rescan the sample for their bound) must
// still agree bit for bit with the int32 kernel and with probeDist, and
// relabeling must not change distances at all.
func TestLabelKernelWideLabelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(6)
		var opts ProblemOptions
		opts.MissingTogether = 0.5
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		p := randMixedProblem(t, rng, 30+rng.Intn(40), m, 0.25, opts)
		factor := []int{300, 70000}[trial%2] // past uint8 / past uint16+histBoundCap
		wp := widenLabels(t, p, factor)

		lk := wp.kernel()
		wantWidth := []int{width16, width32}[trial%2]
		if lk.width != wantWidth {
			t.Fatalf("trial %d: factor %d auto width %d, want %d", trial, factor, lk.width, wantWidth)
		}
		lk32 := wp.kernelWidth(width32)
		n := wp.N()
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				want := probeDist(wp, v, u)
				if got := lk.Dist(v, u); got != want {
					t.Fatalf("trial %d: packed Dist(%d,%d) = %v, probeDist = %v", trial, v, u, got, want)
				}
				if got := lk32.Dist(v, u); got != want {
					t.Fatalf("trial %d: int32 Dist(%d,%d) = %v, probeDist = %v", trial, v, u, got, want)
				}
				if want != probeDist(p, v, u) {
					t.Fatalf("trial %d: relabeling changed Dist(%d,%d)", trial, v, u)
				}
			}
		}

		if lk.average && lk.anyMiss {
			continue
		}
		k := 2 + rng.Intn(3)
		members := make([][]int, k)
		for v := 0; v < n; v++ {
			if v%2 == 0 {
				members[v/2%k] = append(members[v/2%k], v)
			}
		}
		histW := lk.buildColabelHist(members)
		hist32 := lk32.buildColabelHist(members)
		gotM := make([]float64, k)
		wantM := make([]float64, k)
		for v := 1; v < n; v += 2 {
			histW.affinities(lk, v, gotM)
			hist32.affinities(lk32, v, wantM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("trial %d: wide-label width-%d M(%d,C%d) = %v, int32 = %v",
						trial, lk.width, v, c, gotM[c], wantM[c])
				}
			}
		}
	}
}

// FuzzLabelKernelWidths drives the packed uint8/uint16 kernels against the
// int32 kernel on fuzzer-chosen instances — both missing modes, weights,
// optional wide relabeling — requiring bit-for-bit equality on DistRowTo
// and the histogram affinities.
func FuzzLabelKernelWidths(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), false, false)
	f.Add(int64(2), uint8(50), uint8(7), uint8(1), true, false)
	f.Add(int64(3), uint8(9), uint8(2), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, modeRaw uint8, weighted, widen bool) {
		n := 2 + int(nRaw)%60
		m := 1 + int(mRaw)%8
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		opts.MissingTogether = []float64{0.25, 0.5, 0.75}[modeRaw%3]
		if weighted {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*4
			}
			opts.Weights = w
		}
		p := randMixedProblem(t, rng, n, m, 0.3, opts)
		if widen {
			p = widenLabels(t, p, 300)
		}
		ref := p.kernelWidth(width32)
		packed := p.kernel()
		if packed.width == width32 {
			return // nothing narrower to compare
		}

		targets := rng.Perm(n)
		want := make([]float64, n)
		got := make([]float64, n)
		for v := 0; v < n; v++ {
			ref.DistRowTo(v, targets, want)
			packed.DistRowTo(v, targets, got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("width-%d DistRowTo(%d)[->%d] = %v, int32 = %v (n=%d m=%d mode=%d)",
						packed.width, v, targets[j], got[j], want[j], n, m, opts.MissingMode)
				}
			}
		}

		if ref.average && ref.anyMiss {
			return
		}
		k := 1 + int(nRaw)%3
		members := make([][]int, k)
		for v := 0; v < n; v += 2 {
			members[v/2%k] = append(members[v/2%k], v)
		}
		for _, mem := range members {
			if len(mem) == 0 {
				return
			}
		}
		refHist := ref.buildColabelHist(members)
		packedHist := packed.buildColabelHist(members)
		wantM := make([]float64, k)
		gotM := make([]float64, k)
		for v := 0; v < n; v++ {
			refHist.affinities(ref, v, wantM)
			packedHist.affinities(packed, v, gotM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("width-%d M(%d,C%d) = %v, int32 = %v", packed.width, v, c, gotM[c], wantM[c])
				}
			}
		}
	})
}

// TestSampleShardsWorkersIdentical: for every fixed shard count the sharded
// tree must return bit-identical labels at every worker count — shard seeds
// are pre-drawn, shards run single-threaded, and the final assignment is
// scheduling-independent. Shards = 0 must auto-resolve to the single-level
// pass below the shardTarget threshold.
func TestSampleShardsWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 4; trial++ {
		m := 3 + rng.Intn(5)
		opts := ProblemOptions{MissingTogether: 0.5}
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 + rng.Float64()*3
		}
		opts.Weights = w
		p := randMixedProblem(t, rng, 300+rng.Intn(200), m, 0.2, opts)

		var singleLevel partition.Labels
		for _, shards := range []int{0, 1, 2, 7} {
			var base partition.Labels
			for _, workers := range []int{0, 1, 8} {
				labels, err := p.Sample(MethodAgglomerative, AggregateOptions{Workers: workers}, SamplingOptions{
					SampleSize: 50, Shards: shards,
					Rand: rand.New(rand.NewSource(int64(trial))),
				})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = labels
				}
				for i := range labels {
					if labels[i] != base[i] {
						t.Fatalf("trial %d: Shards=%d Workers=%d diverges at object %d",
							trial, shards, workers, i)
					}
				}
			}
			if shards == 0 {
				singleLevel = base
			}
			// Below shardTarget, auto sharding must be the single-level pass.
			if shards == 1 {
				for i := range base {
					if base[i] != singleLevel[i] {
						t.Fatalf("trial %d: Shards=1 differs from auto Shards=0 at object %d", trial, i)
					}
				}
			}
		}
	}
}

// TestSampleShardedWidthInvariant: an injective relabeling of the inputs
// changes the packed width (uint8 → uint16/int32) but no distance, so the
// sharded pipeline must return the identical clustering — the end-to-end
// "labels bit-identical across packed widths" check.
func TestSampleShardedWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	p := randMixedProblem(t, rng, 600, 6, 0.2, ProblemOptions{MissingTogether: 0.5})
	sOpts := func() SamplingOptions {
		return SamplingOptions{SampleSize: 40, Shards: 3, Rand: rand.New(rand.NewSource(9))}
	}
	want, err := p.Sample(MethodAgglomerative, AggregateOptions{}, sOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []int{300, 70000} {
		got, err := widenLabels(t, p, factor).Sample(MethodAgglomerative, AggregateOptions{}, sOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("factor %d: sharded labels diverge at object %d: %d != %d", factor, i, got[i], want[i])
			}
		}
	}
}

// TestSampleShardedValidAndClose: the sharded tree must return a valid
// normalized full labeling that recovers planted structure about as well as
// the single-level pass.
func TestSampleShardedValidAndClose(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	p, truth := plantedProblem(t, rng, 2000, 4, 7, 0.12)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 80, Shards: 4, Rand: rand.New(rand.NewSource(17)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != p.N() {
		t.Fatalf("%d labels, want %d", len(labels), p.N())
	}
	if err := labels.Validate(); err != nil {
		t.Fatal(err)
	}
	if !labels.IsNormalized() {
		t.Fatal("sharded labels not normalized")
	}
	for i, v := range labels {
		if v == partition.Missing {
			t.Fatalf("object %d unassigned", i)
		}
	}
	ri, err := partition.RandIndex(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ri < 0.95 {
		t.Errorf("sharded aggregation Rand index %v, want >= 0.95 (k found %d)", ri, labels.K())
	}
}

// TestSampleShardedTelemetry pins the sharded tree's observability
// contract on the in-memory driver: shard/rep counters, the per-shard
// cluster-count series in shard order, the per-level spans with one
// sample:shard lane per shard, and shard progress ticks whose Total is the
// shard count.
func TestSampleShardedTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	p, _ := plantedProblem(t, rng, 1200, 3, 5, 0.1)
	rec := obs.New()
	var events []obs.ProgressEvent
	progress := obs.NewProgress(func(e obs.ProgressEvent) {
		if e.Stage == "sample:shards" {
			events = append(events, e)
		}
	}, time.Nanosecond)
	labels, err := p.Sample(MethodFurthest, AggregateOptions{Progress: progress}, SamplingOptions{
		SampleSize: 60, Shards: 4, Rand: rand.New(rand.NewSource(19)), Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["sample.shards"] != 4 {
		t.Errorf("sample.shards = %d, want 4", c["sample.shards"])
	}
	if c["sample.shard.reps"] < int64(labels.K()) || c["sample.shard.reps"] > 1200 {
		t.Errorf("sample.shard.reps = %d out of range [k=%d, n]", c["sample.shard.reps"], labels.K())
	}
	if c["sample.assigned"]+c["sample.fresh_singletons"] != int64(1200-int(c["sample.shard.reps"])) {
		t.Errorf("assigned %d + fresh %d != n - reps %d",
			c["sample.assigned"], c["sample.fresh_singletons"], 1200-int(c["sample.shard.reps"]))
	}
	ks, ok := rec.AllSeries()["sample.shard.k"]
	if !ok {
		t.Fatal("sample.shard.k series missing")
	}
	var repSum float64
	for _, pt := range ks.Points {
		repSum += pt.Value
	}
	if int64(repSum) != c["sample.shard.reps"] {
		t.Errorf("sample.shard.k sums to %v, reps counter %d", repSum, c["sample.shard.reps"])
	}
	names := spanNames(rec)
	for _, want := range []string{"sample", "sample:shards", "sample:reps", "sample:assign"} {
		if !names[want] {
			t.Errorf("span %q missing (have %v)", want, names)
		}
	}
	if lanes := len(shardLanes(rec)); lanes != 4 {
		t.Errorf("%d sample:shard lanes, want one per shard (4)", lanes)
	}
	// The shard count is known up front, so every tick carries it. The
	// throttle may drop same-instant ticks, so the count is a lower bound.
	if len(events) == 0 {
		t.Fatal("no shard progress events delivered")
	}
	for i, e := range events {
		if e.Done < 1 || e.Done > 4 || e.Total != 4 {
			t.Errorf("event %d = %d/%d, want Done in [1,4] with Total 4", i, e.Done, e.Total)
		}
	}
}

// TestSampleShardOptionValidation: negative shard counts are rejected;
// over-large explicit counts are clamped rather than starving shards.
func TestSampleShardOptionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(439))
	p, _ := plantedProblem(t, rng, 100, 3, 4, 0.1)
	if _, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{SampleSize: 20, Shards: -2}); err == nil {
		t.Error("negative shard count accepted")
	}
	labels, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
		SampleSize: 10, Shards: 500, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 100 {
		t.Fatalf("clamped sharding returned %d labels", len(labels))
	}
	if got := resolveShards(500, 100); got != 50 {
		t.Errorf("resolveShards(500, 100) = %d, want 50", got)
	}
	if got := resolveShards(0, 100); got != 1 {
		t.Errorf("resolveShards(0, 100) = %d, want 1", got)
	}
	if got := resolveShards(0, 10*shardTarget); got != 10 {
		t.Errorf("resolveShards(0, 10M) = %d, want 10", got)
	}
	if got := resolveShards(0, shardTarget+1); got != 2 {
		t.Errorf("resolveShards(0, shardTarget+1) = %d, want 2", got)
	}
}
