package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusteragg/internal/core"
	"clusteragg/internal/obs"
)

// ingestCSV builds a deterministic CSV with four independent categorical
// attributes and a class column. The attributes disagree enough that the
// sampled aggregate depends on which objects the sampling seed picks.
func ingestCSV(rows int) string {
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	b.WriteString("a,b,c,d,class\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "x%d,y%d,z%d,w%d,%s\n", rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3), []string{"A", "B"}[i%2])
	}
	return b.String()
}

// TestRunPipelinedIngestEquiv: a sampled run pipelines ingest with shard
// aggregation, and that must not change any deterministic report field —
// result shape, costs, or the sharding and ingest counters — against the
// -describe run, which drains the whole table first, at any
// -ingest-workers value. The cases cover -sample alone, -shards -1 alone
// (auto-sized shards, no sample size) and -seed 0.
func TestRunPipelinedIngestEquiv(t *testing.T) {
	defer core.SetShardTarget(64)()
	csv := ingestCSV(300)
	path := writeCSV(t, csv)
	report := func(sample, shards int, seed int64, ingest int, describe bool) obs.RunReport {
		cfg := base()
		cfg.header = true
		cfg.class = "class"
		cfg.sample = sample
		cfg.shards = shards
		cfg.seed = seed
		cfg.ingestWorkers = ingest
		cfg.describe = describe
		cfg.report = filepath.Join(t.TempDir(), "rep.json")
		if err := run(path, cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.report)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	hasPipeline := func(rep obs.RunReport) bool {
		for _, s := range rep.Spans {
			if s.Name == "pipeline" {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name           string
		sample, shards int
		seed           int64
	}{
		{"sample", 25, 0, 1},
		{"auto-shards", 0, -1, 1},
		{"seed0", 25, 0, 0},
	} {
		want := report(tc.sample, tc.shards, tc.seed, 0, true)
		if hasPipeline(want) {
			t.Fatalf("%s: -describe run pipelined its ingest; it must drain the table", tc.name)
		}
		if want.Counters["ingest.rows"] != 300 || want.Counters["ingest.bytes"] != int64(len(csv)) {
			t.Fatalf("%s: drain ingest counters = %d rows / %d bytes, want 300 / %d",
				tc.name, want.Counters["ingest.rows"], want.Counters["ingest.bytes"], len(csv))
		}
		if want.Counters["sample.shards"] != 5 { // ceil(300/64)
			t.Fatalf("%s: sample.shards = %d, want 5", tc.name, want.Counters["sample.shards"])
		}
		for _, workers := range []int{0, 1, 2} {
			got := report(tc.sample, tc.shards, tc.seed, workers, false)
			if !hasPipeline(got) {
				t.Errorf("%s ingest-workers=%d: sampled run has no pipeline span", tc.name, workers)
			}
			if got.N != want.N || got.M != want.M || got.Clusters != want.Clusters ||
				got.Cost != want.Cost || got.LowerBound != want.LowerBound {
				t.Errorf("%s ingest-workers=%d: report head {n:%d m:%d k:%d cost:%v lb:%v}, want {n:%d m:%d k:%d cost:%v lb:%v}",
					tc.name, workers, got.N, got.M, got.Clusters, got.Cost, got.LowerBound,
					want.N, want.M, want.Clusters, want.Cost, want.LowerBound)
			}
			for _, name := range []string{"ingest.rows", "ingest.bytes", "sample.shards", "sample.shard.reps", "sample.assigned"} {
				if got.Counters[name] != want.Counters[name] {
					t.Errorf("%s ingest-workers=%d: counter %s = %d, want %d", tc.name, workers, name, got.Counters[name], want.Counters[name])
				}
			}
		}
	}
}

// TestRunPipelinedDescribeFallsBack: -describe needs the materialized
// table, so a sampled -describe run must take the drain-then-compute path
// — and still work.
func TestRunPipelinedDescribeFallsBack(t *testing.T) {
	defer core.SetShardTarget(64)()
	path := writeCSV(t, ingestCSV(150))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.sample = 20
	cfg.ingestWorkers = 2
	cfg.describe = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelIngestExact: -ingest-workers on the exact (non-sampling)
// path parses with the chunked reader into the classic pipeline.
func TestRunParallelIngestExact(t *testing.T) {
	path := writeCSV(t, ingestCSV(50))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.ingestWorkers = 3
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}
