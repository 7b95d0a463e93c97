package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// withShardTarget shrinks the auto-shard segment size for the duration of
// the test so the sharded and pipelined paths engage at test-sized n.
// Callers must keep target ≥ 8: below 4 the resolveShards n/2 clamp can
// disagree with the fixed-size segmentation (see the shardTarget doc).
func withShardTarget(t *testing.T, target int) {
	t.Helper()
	if target < 8 {
		t.Fatalf("withShardTarget(%d): keep test targets >= 8", target)
	}
	old := shardTarget
	shardTarget = target
	t.Cleanup(func() { shardTarget = old })
}

// feedCols generates n random label rows over m clusterings in the
// column-major [][]int shape PushRows takes: small labels with a missing
// sprinkle, and — from row wideFrom on (when wideFrom >= 0) — labels
// scaled by wideFactor so later segments need a wider packing than earlier
// ones (exercising stitchPacked's widening).
func feedCols(rng *rand.Rand, n, m int, pMiss float64, wideFrom, wideFactor int) [][]int {
	cols := make([][]int, m)
	for ci := range cols {
		c := make([]int, n)
		for r := range c {
			if rng.Float64() < pMiss {
				c[r] = partition.Missing
				continue
			}
			l := rng.Intn(5)
			if wideFrom >= 0 && r >= wideFrom {
				l *= wideFactor
			}
			c[r] = l
		}
		cols[ci] = c
	}
	return cols
}

// packCols runs every row through one row-mode PackedBuilder — the
// non-pipelined build SampleFeed is pinned against.
func packCols(t testing.TB, cols [][]int, pOpts ProblemOptions) *Problem {
	t.Helper()
	m := len(cols)
	b := NewPackedBuilder(m)
	row := make([]int, m)
	for r := 0; r < len(cols[0]); r++ {
		for ci := range cols {
			row[ci] = cols[ci][r]
		}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblemPacked(pc, pOpts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pushBatches feeds cols to f in batches of the given size (the whole
// input at once when batch <= 0).
func pushBatches(t testing.TB, f *SampleFeed, cols [][]int, batch int) {
	t.Helper()
	n := len(cols[0])
	if batch <= 0 {
		batch = n
	}
	buf := make([][]int, len(cols))
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		for ci := range cols {
			buf[ci] = cols[ci][lo:hi]
		}
		if err := f.PushRows(buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStitchPacked pins stitchPacked against a single row-mode builder over
// the same rows, including segments of three different widths: the stitched
// block must match field for field — width, label words, per-clustering
// bounds, missing flags.
func TestStitchPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	cases := []struct {
		name     string
		segSizes []int
		maxLabs  []int // per segment: labels drawn from [0, maxLab]
	}{
		{"all-narrow", []int{5, 3, 7}, []int{4, 4, 4}},
		{"widen-to-16", []int{6, 4}, []int{4, 255}},
		{"widen-to-32", []int{5, 5, 5}, []int{4, 255, 65535}},
		{"wide-then-narrow", []int{4, 6}, []int{70000, 3}},
		{"single-segment", []int{9}, []int{255}},
	}
	const m = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var segs []*PackedClusterings
			ref := NewPackedBuilder(m)
			row := make([]int, m)
			for si, size := range tc.segSizes {
				b := NewPackedBuilder(m)
				for r := 0; r < size; r++ {
					for ci := range row {
						if rng.Float64() < 0.2 {
							row[ci] = partition.Missing
						} else {
							row[ci] = rng.Intn(tc.maxLabs[si] + 1)
						}
					}
					if err := b.AppendRow(row); err != nil {
						t.Fatal(err)
					}
					if err := ref.AppendRow(row); err != nil {
						t.Fatal(err)
					}
				}
				pc, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				segs = append(segs, pc)
			}
			want, err := ref.Build()
			if err != nil {
				t.Fatal(err)
			}
			got := stitchPacked(segs, m)
			if got.n != want.n || got.m != want.m || got.width != want.width || got.anyMiss != want.anyMiss {
				t.Fatalf("header mismatch: got {n:%d m:%d w:%d miss:%v}, want {n:%d m:%d w:%d miss:%v}",
					got.n, got.m, got.width, got.anyMiss, want.n, want.m, want.width, want.anyMiss)
			}
			if !slices.Equal(got.maxLab, want.maxLab) {
				t.Fatalf("maxLab = %v, want %v", got.maxLab, want.maxLab)
			}
			if !slices.Equal(got.hasMiss, want.hasMiss) {
				t.Fatalf("hasMiss mismatch")
			}
			if !slices.Equal(got.lab8, want.lab8) || !slices.Equal(got.lab16, want.lab16) || !slices.Equal(got.lab32, want.lab32) {
				t.Fatalf("label words mismatch at width %d", got.width)
			}
		})
	}
}

// TestSampleFeedMatchesSample is the pipelining equivalence pin: at every
// combination of input size (partial / exact single segment / several
// segments / exact multiple), push batch size, worker count, and a
// widening-label mix, SampleFeed must return labels bit-identical to
// building the whole packed problem and calling Problem.Sample with the
// same options.
func TestSampleFeedMatchesSample(t *testing.T) {
	withShardTarget(t, 64)
	rng := rand.New(rand.NewSource(449))
	sizes := []int{50, 64, 65, 128, 300, 311}
	batches := []int{1, 7, 64, 0} // 0 = one big batch
	for _, n := range sizes {
		cols := feedCols(rng, n, 4, 0.15, n/2, 300) // later rows widen past uint8
		var pOpts ProblemOptions
		if n%2 == 1 {
			pOpts.MissingMode = MissingAverage
		}
		want, err := packCols(t, cols, pOpts).Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
			SampleSize: 20, Rand: rand.New(rand.NewSource(int64(n))),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			for _, workers := range []int{1, 4} {
				f, err := NewSampleFeed(4, pOpts, MethodAgglomerative, AggregateOptions{Workers: workers}, SamplingOptions{
					SampleSize: 20, Rand: rand.New(rand.NewSource(int64(n))),
				})
				if err != nil {
					t.Fatal(err)
				}
				pushBatches(t, f, cols, batch)
				if f.Rows() != n {
					t.Fatalf("n=%d: Rows() = %d", n, f.Rows())
				}
				got, err := f.Finish()
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d batch=%d workers=%d: labels diverge at object %d: %d != %d",
							n, batch, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSampleFeedFallbacks: configurations that cannot pipeline — an
// explicit shard count, and the SampleSize >= n exact regime — must still
// match the non-pipelined call exactly.
func TestSampleFeedFallbacks(t *testing.T) {
	withShardTarget(t, 64)
	rng := rand.New(rand.NewSource(457))
	cols := feedCols(rng, 200, 3, 0.1, -1, 0)
	ref := packCols(t, cols, ProblemOptions{})

	// Explicit shard count: boundaries depend on the final n, so the feed
	// drains first; the balanced i*n/shards split must come out identical.
	want, err := ref.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
		SampleSize: 15, Shards: 3, Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSampleFeed(3, ProblemOptions{}, MethodFurthest, AggregateOptions{}, SamplingOptions{
		SampleSize: 15, Shards: 3, Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, f, cols, 17)
	got, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("explicit-shards feed diverges from Sample")
	}

	// SampleSize >= n: Sample aggregates exactly and never shards. The feed
	// has already sealed segments by the time it can know that (200 rows =
	// 4 segments), and must still match.
	want, err = ref.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
		SampleSize: 500, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err = NewSampleFeed(3, ProblemOptions{}, MethodBalls, AggregateOptions{}, SamplingOptions{
		SampleSize: 500, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, f, cols, 50)
	got, err = f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("SampleSize >= n feed diverges from exact Aggregate")
	}
}

// TestSampleFeedTelemetry: the pipelined run must emit the same sharding
// counters, events and per-shard series as Problem.Sample, one lane span
// per shard under sample:shards, and one progress event per completed
// shard.
func TestSampleFeedTelemetry(t *testing.T) {
	withShardTarget(t, 64)
	rng := rand.New(rand.NewSource(461))
	cols := feedCols(rng, 300, 3, 0.1, -1, 0)

	recWant := obs.New()
	_, err := packCols(t, cols, ProblemOptions{}).Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 20, Rand: rand.New(rand.NewSource(8)), Recorder: recWant,
	})
	if err != nil {
		t.Fatal(err)
	}

	var events []obs.ProgressEvent
	progress := obs.NewProgress(func(e obs.ProgressEvent) {
		if e.Stage == "sample:shards" {
			events = append(events, e)
		}
	}, time.Nanosecond)
	recGot := obs.New()
	f, err := NewSampleFeed(3, ProblemOptions{}, MethodAgglomerative, AggregateOptions{Workers: 1, Progress: progress}, SamplingOptions{
		SampleSize: 20, Rand: rand.New(rand.NewSource(8)), Recorder: recGot,
	})
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, f, cols, 31)
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}

	cw, cg := recWant.Counters(), recGot.Counters()
	for _, name := range []string{"sample.shards", "sample.shard.reps", "sample.assigned", "sample.fresh_singletons"} {
		if cg[name] != cw[name] {
			t.Errorf("%s = %d, Sample = %d", name, cg[name], cw[name])
		}
	}
	if cg["sample.shards"] != 5 { // ceil(300/64)
		t.Errorf("sample.shards = %d, want 5", cg["sample.shards"])
	}
	ksWant, ksGot := recWant.AllSeries()["sample.shard.k"], recGot.AllSeries()["sample.shard.k"]
	if len(ksGot.Points) != len(ksWant.Points) {
		t.Fatalf("sample.shard.k has %d points, Sample %d", len(ksGot.Points), len(ksWant.Points))
	}
	for i := range ksGot.Points {
		// WallNS is wall-clock; the deterministic fields must match exactly.
		if ksGot.Points[i].Step != ksWant.Points[i].Step || ksGot.Points[i].Value != ksWant.Points[i].Value {
			t.Errorf("sample.shard.k[%d] = (%d, %v), Sample = (%d, %v)", i,
				ksGot.Points[i].Step, ksGot.Points[i].Value, ksWant.Points[i].Step, ksWant.Points[i].Value)
		}
	}

	names := spanNames(recGot)
	for _, want := range []string{"sample", "sample:shards", "sample:reps", "sample:assign"} {
		if !names[want] {
			t.Errorf("span %q missing (have %v)", want, names)
		}
	}
	if lanes := len(shardLanes(recGot)); lanes != 5 {
		t.Errorf("%d sample:shard lanes, want 5", lanes)
	}
	wantEv, gotEv := shardEvents(recWant), shardEvents(recGot)
	if len(wantEv) != 2 || !reflect.DeepEqual(gotEv, wantEv) {
		t.Errorf("shard events %v, Sample %v", gotEv, wantEv)
	}

	// Workers=1 serializes the shard consumers, so the per-shard progress
	// ticks arrive in increasing order with no total (unknown until EOF).
	// The throttle may still drop same-instant ticks, so the count is a
	// lower bound, not an exact 5.
	if len(events) == 0 {
		t.Fatal("no shard progress events delivered")
	}
	prev := int64(0)
	for i, e := range events {
		if e.Done <= prev || e.Done > 5 || e.Total != 0 {
			t.Errorf("event %d = %d/%d after %d, want increasing Done in [1,5] with Total 0", i, e.Done, e.Total, prev)
		}
		prev = e.Done
	}
}

// spanNames returns the names of every span rec recorded.
func spanNames(rec *obs.Recorder) map[string]bool {
	names := map[string]bool{}
	var walk func([]obs.SpanSnapshot)
	walk = func(spans []obs.SpanSnapshot) {
		for _, s := range spans {
			names[s.Name] = true
			walk(s.Children)
		}
	}
	walk(rec.Spans())
	return names
}

// shardLanes returns the durations of the sample:shard lanes under
// sample:shards, in recording order.
func shardLanes(rec *obs.Recorder) []int64 {
	var lanes []int64
	var walk func([]obs.SpanSnapshot, string)
	walk = func(spans []obs.SpanSnapshot, parent string) {
		for _, s := range spans {
			if s.Name == "sample:shard" && parent == "sample:shards" {
				lanes = append(lanes, s.DurationNS)
			}
			walk(s.Children, s.Name)
		}
	}
	walk(rec.Spans(), "")
	return lanes
}

// shardEvents returns the message and attributes of rec's sample.shards
// and sample.shard.reps events, in emission order.
func shardEvents(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, e := range rec.EventsSnapshot().Entries {
		if e.Msg == "sample.shards" || e.Msg == "sample.shard.reps" {
			out = append(out, obs.Event{Msg: e.Msg, Attrs: e.Attrs})
		}
	}
	return out
}

// TestShardErrorSurfaces: a failing shard fails the run with its index
// from both drivers of the shard tree, and the call returns only after
// every in-flight shard has ended — every sample:shard lane is closed when
// it returns, and no shard goroutine outlives it.
func TestShardErrorSurfaces(t *testing.T) {
	withShardTarget(t, 64)
	cols := feedCols(rand.New(rand.NewSource(467)), 300, 3, 0.1, -1, 0)
	bad := Method(99)
	before := runtime.NumGoroutine()
	check := func(name string, rec *obs.Recorder, err error) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), "core: shard 0/5: ") {
			t.Errorf("%s: err = %v, want a core: shard 0/5 error", name, err)
		}
		lanes := shardLanes(rec)
		if len(lanes) != 5 {
			t.Errorf("%s: %d sample:shard lanes, want 5", name, len(lanes))
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still running, %d before the run", name, runtime.NumGoroutine(), before)
			}
		}
		// An open lane reports its duration so far, so it would have grown.
		if again := shardLanes(rec); !slices.Equal(again, lanes) {
			t.Errorf("%s: a sample:shard lane was still open when the call returned", name)
		}
	}
	for _, workers := range []int{1, 2} {
		rec := obs.New()
		_, err := packCols(t, cols, ProblemOptions{}).Sample(bad, AggregateOptions{Workers: workers}, SamplingOptions{
			SampleSize: 20, Recorder: rec,
		})
		check(fmt.Sprintf("Sample workers=%d", workers), rec, err)

		rec = obs.New()
		f, err := NewSampleFeed(3, ProblemOptions{}, bad, AggregateOptions{Workers: workers}, SamplingOptions{
			SampleSize: 20, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		pushBatches(t, f, cols, 31)
		_, err = f.Finish()
		check(fmt.Sprintf("SampleFeed workers=%d", workers), rec, err)
	}
}

// TestSampleFeedErrors covers the construction and usage error surface.
func TestSampleFeedErrors(t *testing.T) {
	withShardTarget(t, 64)
	if _, err := NewSampleFeed(0, ProblemOptions{}, MethodBest, AggregateOptions{}, SamplingOptions{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewSampleFeed(2, ProblemOptions{MissingTogether: 2}, MethodBest, AggregateOptions{}, SamplingOptions{}); err == nil {
		t.Error("invalid MissingTogether accepted")
	}
	if _, err := NewSampleFeed(2, ProblemOptions{}, MethodBest, AggregateOptions{}, SamplingOptions{SampleSize: -1}); err == nil {
		t.Error("negative sample size accepted")
	}
	if _, err := NewSampleFeed(2, ProblemOptions{}, MethodBest, AggregateOptions{}, SamplingOptions{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}

	f, err := NewSampleFeed(2, ProblemOptions{}, MethodBest, AggregateOptions{}, SamplingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PushRows([][]int{{0}}); err == nil || !strings.Contains(err.Error(), "clusterings") {
		t.Errorf("wrong-m batch: %v", err)
	}
	if err := f.PushRows([][]int{{0, 1}, {0}}); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("ragged batch: %v", err)
	}
	if err := f.PushRows([][]int{{0, -5}, {0, 1}}); err == nil {
		t.Error("invalid label accepted")
	}
	if err := f.PushRows([][]int{{0, 1, 0}, {1, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.PushRows([][]int{{0}, {1}}); err == nil {
		t.Error("PushRows after Finish accepted")
	}
	if _, err := f.Finish(); err == nil {
		t.Error("second Finish accepted")
	}
}
