package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

// This file is the "ingest" artifact: the chunked CSV reader and the
// ingest/compute pipeline measured end to end (CSV bytes → aggregate
// labels) in two modes — drain (read the whole table, then sample) and the
// pipelined path where shard aggregation starts while later chunks are
// still being parsed. The two modes must produce identical labels (the run
// errors out otherwise), so the artifact's gated rows are the
// deterministic facts: row/byte counts, the resolved shard count, the
// cluster count, and the Rand index against the planted truth. All wall
// times carry benchdiff-ignored suffixes (seconds, time_ratio, throughput):
// they are recorded for the PERFORMANCE.md table, not gated — single-core
// CI machines cannot hold a parallelism ratio.

// ingestWorkersN is the chunk-parser count of both modes.
const ingestWorkersN = 8

// ingestShardTarget shrinks the auto-shard row target for this artifact so
// the sharded pipeline genuinely engages at artifact scale (the production
// 2^20-row target would run everything single-level); both modes run
// under the same target, so equivalence is still exercised end to end.
const ingestShardTarget = 8192

// ingestSampleSize is the per-level SAMPLING size; explicit so the artifact
// is deterministic and cheap.
const ingestSampleSize = 500

// IngestResult is the "ingest" artifact's outcome.
type IngestResult struct {
	Rows  int
	Attrs int
	Bytes int64
	// Shards is the resolved auto-shard count (ceil(Rows/ingestShardTarget)).
	Shards   int
	Clusters int
	// Rand is the Rand index of the aggregate against the planted truth
	// carried by the class column.
	Rand float64
	// Per-mode end-to-end wall times (CSV bytes → labels).
	Drain, Pipelined time.Duration
}

// plantedCSVTo streams the huge recipe as CSV: a header row, then n rows of
// hugeM noisy copies of the i%hugeK planted truth (10% noise over hugeK+2
// values, no missing cells) with the truth as a trailing class column — the
// CSV twin of hugeProblem. Deterministic in (n, seed).
func plantedCSVTo(w io.Writer, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	values := make([]string, hugeK+2)
	for v := range values {
		values[v] = fmt.Sprintf("v%03d", v)
	}
	classes := make([]string, hugeK)
	for c := range classes {
		classes[c] = fmt.Sprintf("c%03d", c)
	}
	var row bytes.Buffer
	for a := 0; a < hugeM; a++ {
		fmt.Fprintf(&row, "attr%02d,", a+1)
	}
	row.WriteString("class\n")
	if _, err := w.Write(row.Bytes()); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row.Reset()
		truth := i % hugeK
		for a := 0; a < hugeM; a++ {
			if rng.Float64() < 0.1 {
				row.WriteString(values[rng.Intn(hugeK+2)])
			} else {
				row.WriteString(values[truth])
			}
			row.WriteByte(',')
		}
		row.WriteString(classes[truth])
		row.WriteByte('\n')
		if _, err := w.Write(row.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// ingestDrain is the drain-then-compute path: read the whole CSV, pack the
// categorical columns, and run sharded SAMPLING.
func ingestDrain(r io.Reader, aggOpts core.AggregateOptions, sOpts core.SamplingOptions) (partition.Labels, partition.Labels, error) {
	t, err := dataset.ReadCSV(r, dataset.CSVOptions{Name: "ingest", HasHeader: true, ClassColumn: "class", Workers: ingestWorkersN})
	if err != nil {
		return nil, nil, err
	}
	p, err := t.PackedProblem()
	if err != nil {
		return nil, nil, err
	}
	labels, err := p.Sample(core.MethodFurthest, aggOpts, sOpts)
	return labels, t.Class, err
}

// ingestFeedSink bridges the chunked reader's row stream into a SampleFeed
// (the internal twin of the root facade's sink, without the facade's
// telemetry trimmings).
type ingestFeedSink struct {
	aggOpts core.AggregateOptions
	sOpts   core.SamplingOptions
	feed    *core.SampleFeed
	class   partition.Labels
}

func (s *ingestFeedSink) Schema(cats []string, hasClass bool) error {
	f, err := core.NewSampleFeed(len(cats), core.ProblemOptions{}, core.MethodFurthest, s.aggOpts, s.sOpts)
	if err != nil {
		return err
	}
	s.feed = f
	return nil
}

func (s *ingestFeedSink) Rows(lo, hi int, cats [][]int, class []int) error {
	if class != nil {
		s.class = append(s.class, class...)
	}
	return s.feed.PushRows(cats)
}

// ingestPipeline is the pipelined path: chunk-parsed rows stream straight
// into the sharded sampling tree, so shard aggregation overlaps the parsing
// of later chunks.
func ingestPipeline(r io.Reader, aggOpts core.AggregateOptions, sOpts core.SamplingOptions) (partition.Labels, partition.Labels, int64, error) {
	sink := &ingestFeedSink{aggOpts: aggOpts, sOpts: sOpts}
	st, err := dataset.ReadCSVStream(r, dataset.CSVOptions{
		Name: "ingest", HasHeader: true, ClassColumn: "class", Workers: ingestWorkersN,
	}, sink)
	if err != nil {
		return nil, nil, 0, err
	}
	labels, err := sink.feed.Finish()
	return labels, sink.class, st.Bytes, err
}

// IngestThroughput runs both ingest modes over the same in-memory CSV and
// verifies they agree label for label. Only the pipelined run records into
// cfg.Recorder, so the artifact's counters describe one pipelined pass
// (ingest.rows / ingest.bytes / sample.shards...), not a double-counted sum.
func IngestThroughput(cfg Config) (*IngestResult, error) {
	n := cfg.ingestRows()
	restore := core.SetShardTarget(ingestShardTarget)
	defer restore()
	var buf bytes.Buffer
	if err := plantedCSVTo(&buf, n, cfg.seed()); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	res := &IngestResult{
		Rows:   n,
		Attrs:  hugeM,
		Bytes:  int64(len(data)),
		Shards: (n + ingestShardTarget - 1) / ingestShardTarget,
	}
	sOpts := func() core.SamplingOptions {
		return core.SamplingOptions{SampleSize: ingestSampleSize, Rand: rand.New(rand.NewSource(cfg.seed()))}
	}

	var drainLabels, pipeLabels, class partition.Labels
	var err error
	res.Drain, err = timeIt(func() (e error) {
		drainLabels, class, e = ingestDrain(bytes.NewReader(data), core.AggregateOptions{Workers: cfg.Workers}, sOpts())
		return e
	})
	if err != nil {
		return nil, err
	}
	var pipeBytes int64
	res.Pipelined, err = timeIt(func() (e error) {
		pipeLabels, _, pipeBytes, e = ingestPipeline(bytes.NewReader(data),
			core.AggregateOptions{Workers: cfg.Workers, Recorder: cfg.Recorder}, sOpts())
		return e
	})
	if err != nil {
		return nil, err
	}
	cfg.Recorder.Add("ingest.rows", int64(n))
	cfg.Recorder.Add("ingest.bytes", pipeBytes)

	if !slices.Equal(drainLabels, pipeLabels) {
		return nil, fmt.Errorf("ingest: labels diverge between drain and pipelined ingest")
	}
	if pipeBytes != res.Bytes {
		return nil, fmt.Errorf("ingest: pipelined path consumed %d bytes, want %d", pipeBytes, res.Bytes)
	}
	res.Clusters = pipeLabels.K()
	if res.Rand, err = partition.RandIndex(pipeLabels, class); err != nil {
		return nil, err
	}
	return res, nil
}

// String prints the mode table.
func (r *IngestResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ingest — CSV → labels end to end, n=%d, m=%d attributes, %.1f MB, %d shards\n",
		r.Rows, r.Attrs, float64(r.Bytes)/(1<<20), r.Shards)
	fmt.Fprintf(&b, "%14s %10s %10s\n", "mode", "time(s)", "MB/s")
	mbps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(r.Bytes) / (1 << 20) / d.Seconds()
	}
	fmt.Fprintf(&b, "%14s %10.3f %10.1f\n", fmt.Sprintf("drain×%d", ingestWorkersN), r.Drain.Seconds(), mbps(r.Drain))
	fmt.Fprintf(&b, "%14s %10.3f %10.1f\n", fmt.Sprintf("pipelined×%d", ingestWorkersN), r.Pipelined.Seconds(), mbps(r.Pipelined))
	fmt.Fprintf(&b, "labels identical across modes; clusters=%d, Rand index vs planted truth=%.4f\n",
		r.Clusters, r.Rand)
	return b.String()
}
