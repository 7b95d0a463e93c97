package clusteragg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusteragg"
	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/obs"
)

// pipelineCSV builds a deterministic mixed CSV: three categorical columns
// (one high-cardinality so ids widen), a numeric column the schema must
// exclude, a class column, and a sprinkle of missing cells.
func pipelineCSV(rows int) string {
	rng := rand.New(rand.NewSource(97))
	var b strings.Builder
	b.WriteString("color,shape,tag,num,class\n")
	for i := 0; i < rows; i++ {
		color := fmt.Sprintf("c%d", rng.Intn(5))
		shape := fmt.Sprintf("s%d", rng.Intn(4))
		tag := fmt.Sprintf("t%d", rng.Intn(300)) // id range past uint8
		if rng.Intn(17) == 0 {
			color = "?"
		}
		if rng.Intn(23) == 0 {
			shape = ""
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d.5,%s\n", color, shape, tag, i, []string{"A", "B"}[i%2])
	}
	return b.String()
}

func runCSV(t *testing.T, csv string, opts clusteragg.CSVOptions) *clusteragg.CSVResult {
	t.Helper()
	res, err := clusteragg.AggregateCSV(strings.NewReader(csv), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, name string, got, want *clusteragg.CSVResult) {
	t.Helper()
	if !slices.Equal(got.Labels, want.Labels) {
		t.Errorf("%s: labels diverge", name)
	}
	if !slices.Equal(got.Class, want.Class) {
		t.Errorf("%s: class labels diverge", name)
	}
	if got.Disagreement != want.Disagreement || got.LowerBound != want.LowerBound {
		t.Errorf("%s: cost %v/%v, want %v/%v", name, got.Disagreement, got.LowerBound, want.Disagreement, want.LowerBound)
	}
	if got.Attributes != want.Attributes || got.Rows != want.Rows || got.BytesRead != want.BytesRead {
		t.Errorf("%s: attrs/rows/bytes %d/%d/%d, want %d/%d/%d", name,
			got.Attributes, got.Rows, got.BytesRead, want.Attributes, want.Rows, want.BytesRead)
	}
}

// drainCSV is the read-everything-first reference for a sampled
// AggregateCSV run: read the whole table, pack it, run Problem.Sample with
// the same seed, and score the labels the way the facade does.
func drainCSV(t *testing.T, csv string, o clusteragg.CSVOptions) *clusteragg.CSVResult {
	t.Helper()
	tab, err := dataset.ReadCSV(strings.NewReader(csv), dataset.CSVOptions{HasHeader: o.HasHeader, ClassColumn: o.ClassColumn})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tab.PackedProblem()
	if err != nil {
		t.Fatal(err)
	}
	seed := o.SampleSeed
	if seed == 0 {
		seed = 1
	}
	labels, err := p.Sample(o.Method, o.Options, core.SamplingOptions{
		SampleSize: o.SampleSize,
		Shards:     max(o.Shards, 0), // CSVOptions' negative = auto
		Rand:       rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &clusteragg.CSVResult{
		Labels:       labels,
		Class:        tab.Class,
		Disagreement: p.Disagreement(labels),
		LowerBound:   p.LowerBound(),
		Attributes:   p.M(),
		Rows:         tab.N(),
		BytesRead:    tab.BytesRead,
	}
}

// TestAggregateCSVPipelinedEquiv: the pipelined ingest path (chunked reader
// streaming into the sharded sampling tree) must reproduce the
// read-everything-first path bit for bit — labels, class column, costs, and
// byte counts — at every ingest worker count, in the auto-sharded,
// explicit-shard, shards-only (explicit and auto-sized) and seeded
// configurations.
func TestAggregateCSVPipelinedEquiv(t *testing.T) {
	defer core.SetShardTarget(64)()
	csv := pipelineCSV(500)
	cases := []struct {
		name string
		mod  func(*clusteragg.CSVOptions)
	}{
		{"auto-shards", func(o *clusteragg.CSVOptions) { o.SampleSize = 30 }},
		{"explicit-shards", func(o *clusteragg.CSVOptions) { o.SampleSize = 25; o.Shards = 3 }},
		{"shards-only", func(o *clusteragg.CSVOptions) { o.Shards = 2 }},
		{"auto-shards-only", func(o *clusteragg.CSVOptions) { o.Shards = -1 }},
		{"seeded", func(o *clusteragg.CSVOptions) { o.SampleSize = 30; o.SampleSeed = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(ingest int) clusteragg.CSVOptions {
				o := clusteragg.CSVOptions{
					HasHeader:     true,
					ClassColumn:   "class",
					Method:        clusteragg.MethodAgglomerative,
					IngestWorkers: ingest,
				}
				tc.mod(&o)
				return o
			}
			want := drainCSV(t, csv, mk(0))
			if want.Rows != 500 || int(want.BytesRead) != len(csv) {
				t.Fatalf("drain read %d rows / %d bytes, want 500 / %d", want.Rows, want.BytesRead, len(csv))
			}
			for _, workers := range []int{0, 1, 2, 8} {
				sameResult(t, fmt.Sprintf("ingest-workers=%d", workers), runCSV(t, csv, mk(workers)), want)
			}
		})
	}
}

// TestAggregateCSVParallelIngestExact: outside SAMPLING the reader feeds the
// classic drain-then-aggregate path, and the chunk-parser count must change
// nothing.
func TestAggregateCSVParallelIngestExact(t *testing.T) {
	csv := pipelineCSV(120)
	mk := func(ingest int) clusteragg.CSVOptions {
		return clusteragg.CSVOptions{
			HasHeader:     true,
			ClassColumn:   "class",
			Method:        clusteragg.MethodFurthest,
			IngestWorkers: ingest,
		}
	}
	want := runCSV(t, csv, mk(0))
	sameResult(t, "exact ingest-workers=3", runCSV(t, csv, mk(3)), want)
}

// TestAggregateCSVPipelineTelemetry: the pipelined run must record ingest
// counters matching the byte/row ground truth, an ingest lane under the
// pipeline span overlapping the sample span, and an ingest-throughput
// series.
func TestAggregateCSVPipelineTelemetry(t *testing.T) {
	defer core.SetShardTarget(64)()
	csv := pipelineCSV(300)
	rec := clusteragg.NewRecorder()
	res := runCSV(t, csv, clusteragg.CSVOptions{
		HasHeader:     true,
		ClassColumn:   "class",
		Method:        clusteragg.MethodAgglomerative,
		SampleSize:    25,
		IngestWorkers: 2,
		Options:       clusteragg.AggregateOptions{Recorder: rec},
	})
	c := rec.Counters()
	if c["ingest.rows"] != 300 {
		t.Errorf("ingest.rows = %d, want 300", c["ingest.rows"])
	}
	if c["ingest.bytes"] != res.BytesRead || int(c["ingest.bytes"]) != len(csv) {
		t.Errorf("ingest.bytes = %d, want %d", c["ingest.bytes"], len(csv))
	}
	if c["sample.shards"] != 5 { // ceil(300/64)
		t.Errorf("sample.shards = %d, want 5", c["sample.shards"])
	}
	if _, ok := rec.AllSeries()["ingest.throughput"]; !ok {
		t.Error("ingest.throughput series missing")
	}
	var pipeline, ingest, sample bool
	var walk func(spans []obs.SpanSnapshot, parent string)
	walk = func(spans []obs.SpanSnapshot, parent string) {
		for _, s := range spans {
			switch {
			case s.Name == "pipeline":
				pipeline = true
			case s.Name == "ingest" && parent == "pipeline":
				ingest = true
			case s.Name == "sample" && parent == "pipeline":
				sample = true
			}
			walk(s.Children, s.Name)
		}
	}
	walk(rec.Spans(), "")
	if !pipeline || !ingest || !sample {
		t.Errorf("span structure incomplete: pipeline=%v ingest=%v sample=%v", pipeline, ingest, sample)
	}
}

// TestAggregateCSVEvaluateSpan: both AggregateCSV routes score their labels
// under a top-level evaluate span carrying the lower bound's real-work
// counters, and the reported objective does not depend on Workers.
func TestAggregateCSVEvaluateSpan(t *testing.T) {
	defer core.SetShardTarget(64)()
	csv := pipelineCSV(300)
	for _, sample := range []int{0, 25} {
		var want *clusteragg.CSVResult
		for _, workers := range []int{1, 4} {
			rec := clusteragg.NewRecorder()
			res := runCSV(t, csv, clusteragg.CSVOptions{
				HasHeader:   true,
				ClassColumn: "class",
				Method:      clusteragg.MethodAgglomerative,
				SampleSize:  sample,
				Options:     clusteragg.AggregateOptions{Workers: workers, Recorder: rec},
			})
			name := fmt.Sprintf("sample=%d workers=%d", sample, workers)
			evaluate := false
			for _, s := range rec.Spans() {
				evaluate = evaluate || s.Name == "evaluate"
			}
			if !evaluate {
				t.Errorf("%s: no top-level evaluate span", name)
			}
			c := rec.Counters()
			d := c["evaluate.distinct_rows"]
			if d < 2 || d > 300 {
				t.Errorf("%s: evaluate.distinct_rows = %d, want in [2, 300]", name, d)
			}
			if pairs := c["evaluate.row_pairs"]; pairs < d*(d-1)/2 || pairs > d*(d+1)/2 {
				t.Errorf("%s: evaluate.row_pairs = %d for %d distinct rows", name, pairs, d)
			}
			if want == nil {
				want = res
			} else {
				sameResult(t, name, res, want)
			}
		}
	}
}

// TestAggregateCSVPipelinedErrors: error cases must surface through the
// pipelined (sampled) route exactly as through the exact drain route, and
// never name a table — the facade reads an unnamed one, so a name in the
// message could only be an empty "".
func TestAggregateCSVPipelinedErrors(t *testing.T) {
	for _, tc := range []struct{ name, csv string }{
		{"empty", ""},
		{"numeric-only", "1\n2\n3\n"},
		{"ragged", "a,b\nx\ny,q\n"},
	} {
		exactOpts := clusteragg.CSVOptions{IngestWorkers: 2}
		pipeOpts := clusteragg.CSVOptions{SampleSize: 10, IngestWorkers: 2}
		_, exactErr := clusteragg.AggregateCSV(strings.NewReader(tc.csv), exactOpts)
		_, pipeErr := clusteragg.AggregateCSV(strings.NewReader(tc.csv), pipeOpts)
		if exactErr == nil || pipeErr == nil {
			t.Errorf("%s: errors = %v / %v, want both non-nil", tc.name, exactErr, pipeErr)
			continue
		}
		if exactErr.Error() != pipeErr.Error() {
			t.Errorf("%s: pipelined error %q, exact %q", tc.name, pipeErr, exactErr)
		}
		if strings.Contains(exactErr.Error(), `""`) || strings.Contains(pipeErr.Error(), `""`) {
			t.Errorf("%s: error names an empty table: %q / %q", tc.name, exactErr, pipeErr)
		}
	}
}
