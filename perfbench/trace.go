package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"clusteragg/internal/obs"
)

// tracer is the traced run's collector: the obs.Recorder the program
// writes its own spans and counters into, plus what the benchmark measures
// around the public calls it makes. A nil *tracer records nothing and
// attaches no Recorder.
type tracer struct {
	rec      *obs.Recorder
	alloc    map[string]uint64 // heap bytes allocated inside each benchmark span, by name
	sinkWait time.Duration     // time the CSV reader spent blocked in SampleFeed.PushRows
	rows     int64             // rows the benchmark's own ReadCSVStream call delivered
	bytes    int64             // bytes it consumed
	pairs    int64             // object pairs the timed objective calls scanned
}

func newTracer() *tracer {
	return &tracer{rec: obs.New(), alloc: make(map[string]uint64)}
}

// recorder is the Recorder to attach to the program's options: nil when
// untraced, so untraced runs carry no instrumentation at all.
func (t *tracer) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracer) addIngest(rows int, bytes int64) {
	if t != nil {
		t.rows += int64(rows)
		t.bytes += bytes
	}
}

// phase is one benchmark span around a public call, with the heap bytes
// allocated while it was open.
type phase struct {
	t      *tracer
	name   string
	span   *obs.Span
	allocs uint64
}

// start opens a benchmark span nested under the innermost open span.
func (t *tracer) start(name string) *phase {
	if t == nil {
		return nil
	}
	return &phase{t: t, name: name, span: t.rec.Start(name), allocs: heapAllocs()}
}

// child opens a benchmark span as an explicit child of parent, off the
// recorder's span stack, for calls that overlap program spans which
// outlive them.
func (t *tracer) child(parent *phase, name string) *phase {
	if t == nil {
		return nil
	}
	return &phase{t: t, name: name, span: parent.span.StartChild(name), allocs: heapAllocs()}
}

func (p *phase) end() {
	if p == nil {
		return
	}
	p.span.End()
	p.t.alloc[p.name] += heapAllocs() - p.allocs
}

// spanSum adds up the wall time (or, with self, the exclusive self time) of
// every span called name, not descending into a match, so a phase that
// recurses into itself is counted once. A search for a sampling phase
// ("sample:...") does not descend into another sampling phase either: the
// recursive sampling pass inside the singleton recluster belongs to the
// recluster, not to the top-level assignment.
func spanSum(spans []obs.SpanSnapshot, name string, self bool) float64 {
	var s float64
	for _, sp := range spans {
		switch {
		case sp.Name == name && self:
			s += sp.Self().Seconds()
		case sp.Name == name:
			s += sp.Duration().Seconds()
		case strings.HasPrefix(name, "sample:") && strings.HasPrefix(sp.Name, "sample:"):
		default:
			s += spanSum(sp.Children, name, self)
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from a traced run. objects is
// the workload's object count; overhead is the traced ÷ untraced wall time
// minus one; gcCycles and gcPauseS are the runtime's GC work during the
// traced call. A layer the workload never reaches reports zero.
func layerMetrics(t *tracer, objects int, overhead float64, gcCycles uint64, gcPauseS float64) map[string]float64 {
	spans := t.rec.Spans()
	c := t.rec.Counters()
	dur := func(name string) float64 { return spanSum(spans, name, false) }
	self := func(name string) float64 { return spanSum(spans, name, true) }
	cnt := func(name string) float64 { return float64(c[name]) }

	// AggregateCSV's ingest lane is the program's own "ingest" span; the
	// stream workload calls the reader itself under "dataset.read".
	read := dur("dataset.read") + dur("ingest")
	bytes := float64(t.bytes) + cnt("ingest.bytes")
	assign := dur("sample:assign")
	dis, lb := dur("core.disagreement"), dur("core.lower_bound")
	return map[string]float64{
		"dataset.read_s":        read,
		"dataset.bytes_per_s":   ratio(bytes, read),
		"dataset.rows":          float64(t.rows) + cnt("ingest.rows"),
		"dataset.bytes":         bytes,
		"dataset.alloc_bytes":   float64(t.alloc["dataset.read"]),
		"dataset.sink_wait_s":   t.sinkWait.Seconds(),
		"core.feed.finish_s":    dur("core.feed.finish"),
		"core.pack_s":           dur("core.pack"),
		"core.pack.arena_bytes": float64(t.alloc["core.pack"]),

		"core.sample.shards_s":             dur("sample:shards"),
		"core.sample.reps_s":               dur("sample:reps"),
		"core.sample.core_s":               dur("sample:core"),
		"core.sample.assign_s":             assign,
		"core.sample.assign.ns_per_object": ratio(assign*1e9, float64(objects)),
		"core.sample.recluster_s":          dur("sample:recluster"),
		"core.sample.shards":               cnt("sample.shards"),
		"core.sample.reps":                 cnt("sample.shard.reps"),
		"core.sample.assigned":             cnt("sample.assigned"),
		"core.sample.fresh_singletons":     cnt("sample.fresh_singletons"),
		"core.sample.recluster_objects":    cnt("sample.recluster.objects"),
		"core.sample.assign.kernel_cols":   cnt("sample.assign.kernel_cols"),

		"core.materialize_s":          dur("materialize"),
		"core.materialize.cells":      cnt("materialize.cells"),
		"core.materialize.block_adds": cnt("materialize.block_adds"),

		"core.disagreement_s":        dis,
		"core.lower_bound_s":         lb,
		"core.objective.ns_per_pair": ratio((dis+lb)*1e9, float64(t.pairs)),

		"corrclust.localsearch_s":             self("aggregate:localsearch"),
		"corrclust.agglomerative_s":           self("aggregate:agglomerative"),
		"corrclust.balls_s":                   self("aggregate:balls"),
		"corrclust.furthest_s":                self("aggregate:furthest"),
		"corrclust.localsearch.moves":         cnt("localsearch.moves"),
		"corrclust.localsearch.sweeps":        cnt("localsearch.sweeps"),
		"corrclust.localsearch.move_ratio":    ratio(cnt("localsearch.moves"), cnt("localsearch.proposals")),
		"corrclust.agglomerative.merges":      cnt("agglomerative.merges"),
		"corrclust.agglomerative.stale_ratio": ratio(cnt("agglomerative.stale_pops"), cnt("agglomerative.heap_pops")),
		"corrclust.furthest.center_picks":     cnt("furthest.center_picks"),
		"corrclust.furthest.dist_probes":      cnt("furthest.dist_probes"),
		"corrclust.furthest.reassign_rounds":  cnt("furthest.reassign_rounds"),

		"obs.trace_overhead": overhead,
		"runtime.gc_cycles":  float64(gcCycles),
		"runtime.gc_pause_s": gcPauseS,
	}
}

// writePhaseTable prints the traced run's ledger: every span path with its
// wall and self time, its self time's share of its root span, the heap
// bytes allocated inside it where the benchmark opened it around a
// sequential call, then every counter the program emitted.
func writePhaseTable(w io.Writer, t *tracer, overhead float64) {
	fmt.Fprintf(w, "%-64s %10s %10s %7s %14s\n", "span path", "wall_s", "self_s", "share", "alloc_bytes")
	var walk func(prefix string, spans []obs.SpanSnapshot, root float64)
	walk = func(prefix string, spans []obs.SpanSnapshot, root float64) {
		for _, sp := range spans {
			path := sp.Name
			if prefix != "" {
				path = prefix + "/" + sp.Name
			}
			r := root
			if r == 0 {
				r = sp.Duration().Seconds()
			}
			alloc := "-"
			if a, ok := t.alloc[sp.Name]; ok {
				alloc = fmt.Sprint(a)
			}
			fmt.Fprintf(w, "%-64s %10.4f %10.4f %6.1f%% %14s\n", path,
				sp.Duration().Seconds(), sp.Self().Seconds(), 100*ratio(sp.Self().Seconds(), r), alloc)
			walk(path, sp.Children, r)
		}
	}
	walk("", t.rec.Spans(), 0)
	counters := t.rec.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, strings.Repeat("-", 64))
	for _, name := range names {
		fmt.Fprintf(w, "%-64s %d\n", name, counters[name])
	}
	if t.sinkWait > 0 {
		fmt.Fprintf(w, "%-64s %.4f\n", "reader blocked in PushRows (s)", t.sinkWait.Seconds())
	}
	fmt.Fprintf(w, "%-64s %.4f\n", "obs.trace_overhead (traced / untraced wall - 1)", overhead)
}
