package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

func TestPlantedDeterministic(t *testing.T) {
	for _, miss := range []float64{0, 0.05} {
		a := genPlanted(7, 500, 6, 32, 0.1, miss)
		b := genPlanted(7, 500, 6, 32, 0.1, miss)
		c := genPlanted(8, 500, 6, 32, 0.1, miss)
		if !bytes.Equal(a.csv(), b.csv()) {
			t.Errorf("missing %v: one seed gave two different CSVs", miss)
		}
		if !reflect.DeepEqual(a.columns(nil), b.columns(nil)) {
			t.Errorf("missing %v: one seed gave two different label sets", miss)
		}
		if bytes.Equal(a.csv(), c.csv()) {
			t.Errorf("missing %v: seeds 7 and 8 gave the same CSV", miss)
		}
		if reflect.DeepEqual(a.columns(nil), c.columns(nil)) {
			t.Errorf("missing %v: seeds 7 and 8 gave the same labels", miss)
		}
	}
}

// The CSV must parse back to the same partitions the label columns hold,
// with every attribute categorical and "?" read as missing.
func TestPlantedCSVRoundTrip(t *testing.T) {
	p := genPlanted(3, 400, 5, 8, 0.2, 0.1)
	tab, err := dataset.ReadCSV(bytes.NewReader(p.csv()), dataset.CSVOptions{HasHeader: true, ClassColumn: "class"})
	if err != nil {
		t.Fatal(err)
	}
	cats := tab.CategoricalColumns()
	if len(cats) != p.m {
		t.Fatalf("%d categorical columns, want %d", len(cats), p.m)
	}
	cols := p.columns(nil)
	for a, c := range cats {
		got, err := c.Clustering()
		if err != nil {
			t.Fatal(err)
		}
		if d, err := partition.Distance(got, cols[a]); err != nil || d != 0 {
			t.Errorf("attribute %d: parsed partition differs (distance %d, err %v)", a, d, err)
		}
		for i := range got {
			if (got[i] < 0) != (cols[a][i] < 0) {
				t.Fatalf("attribute %d row %d: missing cell not preserved", a, i)
			}
		}
	}
}

func TestSubsample(t *testing.T) {
	s := subsample(5, 1000, 100)
	if len(s) != 100 || !sort.IntsAreSorted(s) {
		t.Fatalf("want 100 sorted indices, got %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			t.Fatalf("index %d drawn twice", s[i])
		}
	}
	if !reflect.DeepEqual(s, subsample(5, 1000, 100)) || reflect.DeepEqual(s, subsample(6, 1000, 100)) {
		t.Error("subsample is not a function of its seed")
	}
}

func TestInputSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		for i := 1; i <= 10; i++ {
			s := inputSeed(seed, i)
			if seen[s] || (s >= 1 && s <= 10) {
				t.Fatalf("inputSeed(%d, %d) = %d collides", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this program reports. recluster-200k is
// deliberately left out of it (see METRICS.md).
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []m                     `json:"end_to_end"`
		PerLayer  []m                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if findWorkload(w.Name) == nil || w.Name == "recluster-200k" {
			t.Errorf("BENCHMARK.json workload %q is not a listed perfbench workload", w.Name)
		}
	}
	check := func(kind string, got []m, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != (kind == "end_to_end") ||
				(g.Bound != nil && *g.Bound != w.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestLayerMetricsNamesMatch(t *testing.T) {
	got := layerMetrics(newTracer(), 1, 0, 0, 0)
	if len(got) != len(perLayer) {
		t.Errorf("layerMetrics returns %d metrics, perLayer declares %d", len(got), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := got[d.name]; !ok {
			t.Errorf("perLayer metric %q is never computed", d.name)
		}
		isTime := strings.HasSuffix(d.name, "_s") && !strings.HasSuffix(d.name, "per_s")
		if isTime != (d.unit == "s") {
			t.Errorf("metric %q has unit %q", d.name, d.unit)
		}
	}
}

// Small versions of every workload must give the same labels traced and
// untraced, at one worker and at several, and the traced call must leave
// the spans the per-layer metrics read.
func TestInstancesInvariant(t *testing.T) {
	small := map[string]instance{}
	p := genPlanted(4, 3000, 6, 8, 0.1, 0)
	small["stream"] = &streamInst{p: p, csv: p.csv(), seed: 4}
	pm := genPlanted(4, 600, 6, 8, 0.1, 0.05)
	small["facade"] = &facadeInst{p: pm, csv: pm.csv(), seed: 4}
	pe := genPlanted(4, 300, 8, 4, 0.25, 0)
	small["exact"] = &exactInst{p: pe, cols: pe.columns(nil)}
	small["recluster"] = &reclusterInst{p: p, cols: p.columns(nil), seed: 4}
	for name, inst := range small {
		ref, err := inst.run(nil, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := newTracer()
		traced, err := inst.run(tr, 4)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		one, err := inst.run(nil, 1)
		if err != nil {
			t.Fatalf("%s at one worker: %v", name, err)
		}
		if h := hashLabels(ref...); h != hashLabels(traced...) || h != hashLabels(one...) {
			t.Errorf("%s: labels change with the Recorder or the worker count", name)
		}
		for i, labels := range ref {
			if err := checkNormalized(labels); err != nil || len(labels) != inst.objects() {
				t.Errorf("%s labels %d: %d objects, %v", name, i, len(labels), err)
			}
		}
		if _, _, err := inst.quality(ref); err != nil {
			t.Errorf("%s quality: %v", name, err)
		}
		if m := layerMetrics(tr, inst.objects(), 0, 0, 0); m["corrclust.furthest_s"]+m["corrclust.agglomerative_s"] <= 0 {
			t.Errorf("%s: the traced call recorded no method time", name)
		}
	}
}

func TestMeasure(t *testing.T) {
	want := errors.New("boom")
	it, err := measure(func() error {
		_ = make([]byte, 1<<20)
		return want
	})
	if err != want || it.wall <= 0 || it.peak == 0 || it.alloc < 1<<20 {
		t.Errorf("measure = %+v, %v", it, err)
	}
}
