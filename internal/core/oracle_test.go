package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file holds the slow reference implementations the production kernel
// is pinned against: a per-clustering distance walk over the []int labels
// and the probing assignment pass SAMPLING's histogram assignment replaces.
// They read p.Clusterings(), never the packed block or the kernel, so the
// equivalence tests compare two independent computations.

// probeDist is the reference X_uv: one pass over the input clusterings in
// index order. Under MissingCoin a clustering missing either label adds
// (1−p)·w_i and a separating one adds w_i, over the total weight; under
// MissingAverage only clusterings with both labels vote, and a pair with no
// votes is maximally uncertain (1/2). The explicit float64 rounds the coin
// product before the add — as the kernel's premultiplied missW does — so no
// GOARCH may fuse it into a multiply-add.
func probeDist(p *Problem, u, v int) float64 {
	if u == v {
		return 0
	}
	var x, votes float64
	for i, c := range p.Clusterings() {
		lu, lv := c[u], c[v]
		w := p.weight(i)
		if lu == partition.Missing || lv == partition.Missing {
			if p.missingMode == MissingCoin {
				x += float64((1 - p.missingP) * w)
			}
			continue
		}
		votes += w
		if lu != lv {
			x += w
		}
	}
	if p.missingMode == MissingCoin {
		return x / p.totalWeight
	}
	if votes == 0 {
		return 0.5
	}
	return x / votes
}

// assignReference is the probing assignment pass assignKernel is pinned
// against: every non-sample object (labels[v] == Missing) sums probeDist
// over each sample cluster's members — O(m·s) per object — and takes the
// cheapest of joining cluster c, d(v, C_c) = M(v,C_c) + Σ_{j≠c}(|C_j| −
// M(v,C_j)), or a fresh singleton labeled k+v, exactly as assignKernel
// selects.
func assignReference(p *Problem, labels partition.Labels, members [][]int) (assigned, fresh int64) {
	k := len(members)
	aff := make([]float64, k)
	for v := range labels {
		if labels[v] != partition.Missing {
			continue
		}
		var totalAway float64
		for c, mem := range members {
			aff[c] = 0
			for _, u := range mem {
				aff[c] += probeDist(p, v, u)
			}
			totalAway += float64(len(mem)) - aff[c]
		}
		bestC, bestCost := -1, totalAway // -1 = fresh singleton
		for c, mem := range members {
			if d := aff[c] + totalAway - (float64(len(mem)) - aff[c]); d < bestCost {
				bestC, bestCost = c, d
			}
		}
		if bestC == -1 {
			labels[v] = k + v
			fresh++
		} else {
			labels[v] = bestC
			assigned++
		}
	}
	return assigned, fresh
}

// sampleState reproduces single-level Sample up to its assignment pass:
// draw s objects with the seeded source, aggregate them exactly with
// method, and return the labels (sample positions set, every other object
// Missing) and the sample clusters' members — the inputs both assignment
// passes take.
func sampleState(t testing.TB, p *Problem, method Method, s int, seed int64) (partition.Labels, [][]int) {
	t.Helper()
	sample := rand.New(rand.NewSource(seed)).Perm(p.N())[:s]
	sort.Ints(sample)
	sampleLabels, err := p.subProblem(sample).Aggregate(method, withMaterialize(AggregateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	labels := make(partition.Labels, p.N())
	for i := range labels {
		labels[i] = partition.Missing
	}
	members := make([][]int, sampleLabels.K())
	for si, c := range sampleLabels {
		labels[sample[si]] = c
		members[c] = append(members[c], sample[si])
	}
	return labels, members
}

// assignBoth runs assignKernel (on workers ≥ 1 chunk stripes) and
// assignReference on copies of the same state and returns both labelings.
func assignBoth(p *Problem, labels partition.Labels, members [][]int, workers int) (kernel, ref partition.Labels) {
	kernel, ref = labels.Clone(), labels.Clone()
	p.assignKernel(nil, nil, kernel, members, workers)
	assignReference(p, ref, members)
	return kernel, ref
}

// kernelWidth builds p's kernel at an explicit width in bytes (0 = the
// cached auto-width kernel). Forcing a width narrower than the packed block
// panics; forced builds bypass the cache so they never leak into the auto
// path. Tests use wider-than-minimum kernels to pin the widths bit-identical
// against each other.
func (p *Problem) kernelWidth(force int) *labelKernel {
	if force == 0 {
		return p.kernel()
	}
	return p.packed.kernelFrom(p, force)
}

// TestNewProblemKeepsCallerSlices: NewProblem packs its input but seeds the
// []int views with the caller's own slices, so Clusterings (and the
// materialization and BestClustering paths behind it) read them in place —
// no unpack, no copy.
func TestNewProblemKeepsCallerSlices(t *testing.T) {
	cs := []partition.Labels{{0, 0, 1, partition.Missing}, {2, 1, 1, 0}}
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Clusterings()
	if len(got) != len(cs) {
		t.Fatalf("Clusterings() has %d clusterings, want %d", len(got), len(cs))
	}
	for i := range cs {
		if &got[i][0] != &cs[i][0] {
			t.Errorf("clustering %d: Clusterings() returned a copy, not the caller's slice", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = p.Clusterings() }); allocs != 0 {
		t.Errorf("Clusterings() allocates %v objects, want 0", allocs)
	}
}

// scanDisagreement is the reference objective the contingency-count
// Disagreement is pinned against: the O(m·n²) pair scan over probeDist,
// W·Σ_{u<v} (X_uv when labels put u and v together, 1−X_uv otherwise).
func scanDisagreement(p *Problem, labels partition.Labels) float64 {
	var cost float64
	for u := 0; u < p.N(); u++ {
		for v := u + 1; v < p.N(); v++ {
			x := probeDist(p, u, v)
			if labels[u] == labels[v] {
				cost += x
			} else {
				cost += 1 - x
			}
		}
	}
	return p.totalWeight * cost
}

// scanLowerBound is the reference lower bound the distinct-row LowerBound is
// pinned against: W·Σ_{u<v} min(X_uv, 1−X_uv) over every object pair.
func scanLowerBound(p *Problem) float64 {
	var lb float64
	for u := 0; u < p.N(); u++ {
		for v := u + 1; v < p.N(); v++ {
			x := probeDist(p, u, v)
			lb += math.Min(x, 1-x)
		}
	}
	return p.totalWeight * lb
}

// objectiveInputs returns m random clusterings of n objects over k labels,
// each label missing with probability pMiss; clustering 0 instead draws
// from wide labels (0..wide−1) when wide > 0, which sets the packed width.
func objectiveInputs(rng *rand.Rand, n, m, k int, pMiss float64, wide int) []partition.Labels {
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := make(partition.Labels, n)
		for j := range c {
			switch {
			case rng.Float64() < pMiss:
				c[j] = partition.Missing
			case i == 0 && wide > 0:
				c[j] = rng.Intn(wide)
			default:
				c[j] = rng.Intn(k)
			}
		}
		cs[i] = c
	}
	return cs
}

// objectiveLabelings returns aggregate labelings of n objects that exercise
// every bucketing route: normalized, the inputs themselves (missing labels
// completed), unnormalized with negative values and Missing, values spread
// over 2^40 (first-appearance compaction), singleton-heavy, and one cluster.
func objectiveLabelings(rng *rand.Rand, n int, cs []partition.Labels) []partition.Labels {
	out := []partition.Labels{}
	add := func(f func(v int) int) {
		l := make(partition.Labels, n)
		for v := range l {
			l[v] = f(v)
		}
		out = append(out, l)
	}
	add(func(int) int { return rng.Intn(4) })
	for _, c := range cs {
		out = append(out, completeMissing(c))
	}
	add(func(int) int { return 1009*rng.Intn(6) - 2000 })
	add(func(int) int { return rng.Intn(5) - 1 }) // includes partition.Missing
	add(func(int) int { return rng.Intn(3) << 40 })
	add(func(v int) int {
		if rng.Intn(10) == 0 {
			return 0
		}
		return n + v
	})
	add(func(int) int { return 7 })
	return out
}

// closeRel reports whether got is within 1e-12 of want, relative to
// max(1, |want|).
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

// checkObjective pins p's Disagreement (on each labeling) and LowerBound
// against the pair scans — bit-equal when exact, within closeRel otherwise —
// and pins Disagreement bit-identical across every kernel width the packed
// block allows. Both LowerBound routes, the lattice and the row-pair scan,
// run directly, whatever the route rule picks: each meets the same
// tolerance and is bit-identical across widths and at workers 1, 2, and 8,
// and LowerBound equals its route bit for bit. It returns the route
// LowerBound took ("lattice" or "scan").
func checkObjective(t testing.TB, name string, p *Problem, labelings []partition.Labels, exact bool) string {
	t.Helper()
	same := func(got, want float64) bool {
		if exact {
			return got == want
		}
		return closeRel(got, want)
	}
	scan := p.kernel().average && p.kernel().anyMiss
	for li, labels := range labelings {
		got, want := p.Disagreement(labels), scanDisagreement(p, labels)
		if !same(got, want) {
			t.Fatalf("%s: labeling %d: Disagreement = %v, pair scan = %v (diff %g)", name, li, got, want, got-want)
		}
		for _, w := range []int{width8, width16, width32} {
			if w < p.packed.width || scan {
				continue
			}
			if gotW := p.kernelWidth(w).disagreement(labels); gotW != got {
				t.Fatalf("%s: labeling %d: width %d gives %v, auto width %v", name, li, w, gotW, got)
			}
		}
	}
	want := scanLowerBound(p)
	rec := obs.New()
	lb := p.lowerBound(rec, 1)
	route := "scan"
	if _, ok := rec.Counters()["evaluate.lattice_groups"]; ok {
		route = "lattice"
	}
	if got := p.LowerBound(); got != lb {
		t.Fatalf("%s: LowerBound = %v on GOMAXPROCS workers, %v on one", name, got, lb)
	}
	if !same(lb, want) {
		t.Fatalf("%s: LowerBound = %v, pair scan = %v (diff %g)", name, lb, want, lb-want)
	}
	for _, lattice := range []bool{false, true} {
		ref := p.totalWeight * lowerBoundRoutes(p.kernel(), 1, lattice)
		if !same(ref, want) {
			t.Fatalf("%s: lattice=%v LowerBound = %v, pair scan = %v (diff %g)", name, lattice, ref, want, ref-want)
		}
		if (route == "lattice") == lattice && ref != lb {
			t.Fatalf("%s: LowerBound = %v, its route (lattice=%v) gives %v", name, lb, lattice, ref)
		}
		for _, w := range []int{width8, width16, width32} {
			if w < p.packed.width {
				continue
			}
			for _, workers := range []int{1, 2, 8} {
				if got := p.totalWeight * lowerBoundRoutes(p.kernelWidth(w), workers, lattice); got != ref {
					t.Fatalf("%s: lattice=%v LowerBound at width %d, %d workers = %v, want %v", name, lattice, w, workers, got, ref)
				}
			}
		}
	}
	return route
}

// TestObjectiveOracle pins the contingency-count Disagreement and both
// LowerBound routes against the test-side pair scans over probeDist:
// bit-equal on dyadic instances (every X_uv and partial sum exact), within
// 1e-12 relative otherwise, and bit-identical across widths (8/16/32 and a
// forced int32 kernel) and LowerBound worker counts. Each case also pins
// the route the rule picks for it.
func TestObjectiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	randWeights := func(m int) []float64 {
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 + 3*rng.Float64()
		}
		return w
	}
	cases := []struct {
		name      string
		n, m, k   int
		pMiss     float64
		wide      int
		opts      ProblemOptions
		exact     bool
		wantWidth int    // packed width (bytes) the case must exercise
		blank     int    // leading objects missing in every clustering
		route     string // the lower-bound route the rule must pick
	}{
		{"coin-dyadic", 300, 4, 5, 0.2, 0, ProblemOptions{}, true, width8, 0, "lattice"},
		{"coin-dyadic-clean", 300, 4, 5, 0, 0, ProblemOptions{}, true, width8, 0, "lattice"},
		{"coin-dyadic-duplicates", 240, 4, 2, 0.1, 0, ProblemOptions{}, true, width8, 0, "lattice"},
		{"coin-dyadic-weights", 200, 8, 3, 0.15, 0, ProblemOptions{Weights: dyadicWeights(8)}, true, width8, 0, "scan"},
		{"coin-p0.3-weights", 200, 5, 4, 0.2, 0, ProblemOptions{MissingTogether: 0.3, Weights: randWeights(5)}, false, width8, 0, "lattice"},
		{"coin-p0.3", 200, 3, 4, 0.25, 0, ProblemOptions{MissingTogether: 0.3}, false, width8, 0, "lattice"},
		{"clean-weights", 200, 6, 4, 0, 0, ProblemOptions{Weights: randWeights(6)}, false, width8, 0, "lattice"},
		{"average-missing", 150, 5, 3, 0.3, 0, ProblemOptions{MissingMode: MissingAverage}, false, width8, 0, "lattice"},
		{"average-missing-weights", 150, 4, 3, 0.3, 0, ProblemOptions{MissingMode: MissingAverage, Weights: randWeights(4)}, false, width8, 0, "lattice"},
		{"average-clean-dyadic", 200, 4, 4, 0, 0, ProblemOptions{MissingMode: MissingAverage}, true, width8, 0, "lattice"},
		{"width16", 250, 4, 4, 0.2, 300, ProblemOptions{}, true, width16, 0, "lattice"},
		{"width32-compacted", 200, 4, 4, 0.2, 70_000, ProblemOptions{}, true, width32, 0, "lattice"},
		{"width32-weights", 200, 4, 4, 0.1, 70_000, ProblemOptions{MissingTogether: 0.3, Weights: randWeights(4)}, false, width32, 0, "lattice"},
		{"m1", 100, 1, 4, 0.2, 0, ProblemOptions{}, true, width8, 0, "lattice"},
		{"m1-average", 100, 1, 4, 0.2, 0, ProblemOptions{MissingMode: MissingAverage}, false, width8, 0, "lattice"},
		{"blank-rows", 200, 4, 3, 0.1, 0, ProblemOptions{}, true, width8, 5, "lattice"},
		{"blank-rows-average", 200, 4, 3, 0.2, 0, ProblemOptions{MissingMode: MissingAverage}, false, width8, 3, "lattice"},
		{"blank-rows-weights", 200, 5, 3, 0.2, 0, ProblemOptions{MissingTogether: 0.3, Weights: []float64{1.0 / 3, 2.0 / 3, 1, 1.0 / 7, 5}}, false, width8, 2, "lattice"},
		{"high-missing", 400, 4, 3, 0.45, 0, ProblemOptions{}, true, width8, 0, "lattice"},
		{"high-missing-average", 400, 5, 3, 0.45, 0, ProblemOptions{MissingMode: MissingAverage, Weights: randWeights(5)}, false, width8, 0, "lattice"},
		// 3^8 union classes outgrow m·d: the table cap sends it to the scan.
		{"high-missing-capped", 300, 8, 3, 0.5, 0, ProblemOptions{}, true, width8, 0, "scan"},
		// 2^16 subsets outweigh the row pairs, as on Votes and Mushrooms.
		{"wide-m16", 200, 16, 3, 0.002, 0, ProblemOptions{}, true, width8, 0, "scan"},
	}
	for _, tc := range cases {
		cs := objectiveInputs(rng, tc.n, tc.m, tc.k, tc.pMiss, tc.wide)
		for _, c := range cs {
			for v := 0; v < tc.blank; v++ {
				c[v] = partition.Missing
			}
		}
		p, err := NewProblem(cs, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.packed.width != tc.wantWidth {
			t.Fatalf("%s: packed width %d, want %d", tc.name, p.packed.width, tc.wantWidth)
		}
		if route := checkObjective(t, tc.name, p, objectiveLabelings(rng, tc.n, cs), tc.exact); route != tc.route {
			t.Errorf("%s: LowerBound took the %s route, want %s", tc.name, route, tc.route)
		}
	}
	// Tiny problems: no pairs, or one.
	for _, n := range []int{0, 1, 2} {
		for _, opts := range []ProblemOptions{{}, {MissingMode: MissingAverage}} {
			cs := objectiveInputs(rng, n, 3, 2, 0.3, 0)
			p, err := NewProblem(cs, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkObjective(t, "tiny", p, objectiveLabelings(rng, n, cs), false)
		}
	}
}

// TestLowerBoundBelowOptimum: the lower bound bounds. On instances of at
// most 8 objects, both routes stay at or below the optimum Disagreement
// over every partition and below the Disagreement of every
// objectiveLabelings labeling, in both missing modes, with and without
// missing labels and weights (up to closeRel where the floats round).
func TestLowerBoundBelowOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1405))
	for trial := 0; trial < 60; trial++ {
		n, m := 2+trial%7, 1+rng.Intn(6)
		var opts ProblemOptions
		switch trial % 3 {
		case 1:
			opts.MissingMode = MissingAverage
		case 2:
			opts.MissingTogether = 0.3
			opts.Weights = make([]float64, m)
			for i := range opts.Weights {
				opts.Weights[i] = 0.25 + 3*rng.Float64()
			}
		}
		cs := objectiveInputs(rng, n, m, 1+rng.Intn(4), 0.3*float64(trial%2), 0)
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		partition.EnumeratePartitions(n, func(l partition.Labels) bool {
			best = min(best, p.Disagreement(l))
			return true
		})
		below := func(lb, d float64) bool { return lb <= d || closeRel(lb, d) }
		for _, lattice := range []bool{false, true} {
			lb := p.totalWeight * lowerBoundRoutes(p.kernel(), 1, lattice)
			if !below(lb, best) {
				t.Fatalf("trial %d (n=%d, m=%d, lattice=%v): LowerBound %v exceeds the optimum %v", trial, n, m, lattice, lb, best)
			}
			for li, l := range objectiveLabelings(rng, n, cs) {
				if d := p.Disagreement(l); !below(lb, d) {
					t.Fatalf("trial %d (n=%d, m=%d, lattice=%v): LowerBound %v exceeds labeling %d's Disagreement %v", trial, n, m, lattice, lb, li, d)
				}
			}
		}
	}
}

// TestDisagreementLengthCheck: a labeling whose length differs from the
// object count panics with a message naming both lengths, instead of
// silently ignoring extra labels or failing on a bare index.
func TestDisagreementLengthCheck(t *testing.T) {
	p, err := NewProblem([]partition.Labels{{0, 0, 1}, {0, 1, 1}}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, labels := range []partition.Labels{{0, 0}, {0, 0, 1, 1}} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				want := fmt.Sprintf("core: Disagreement got %d labels for 3 objects", len(labels))
				if msg != want {
					t.Errorf("%d labels: panic %q, want %q", len(labels), msg, want)
				}
			}()
			p.Disagreement(labels)
		}()
	}
}

// FuzzObjective drives the objective oracle over random instances: both
// missing modes, several coin probabilities, weighted and uniform inputs,
// every packed width, every bucketing route of the labeling, and both
// lower-bound routes.
func FuzzObjective(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(4), uint8(3), uint8(0), uint8(2), false, uint8(0))
	f.Add(int64(2), uint8(70), uint8(5), uint8(2), uint8(1), uint8(0), true, uint8(1))
	f.Add(int64(3), uint8(3), uint8(1), uint8(6), uint8(0), uint8(4), false, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, kRaw, modeRaw, pSel uint8, weighted bool, wideSel uint8) {
		n := int(nRaw) % 90
		m := 1 + int(mRaw)%8
		k := 1 + int(kRaw)%6
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		opts.MissingTogether = []float64{0, 0.25, 0.5, 0.75, 0.3}[pSel%5]
		if weighted {
			opts.Weights = make([]float64, m)
			for i := range opts.Weights {
				opts.Weights[i] = 0.25 + 4*rng.Float64()
			}
		}
		wide := []int{0, 300, 70_000}[wideSel%3]
		cs := objectiveInputs(rng, n, m, k, 0.25*float64(modeRaw/2%3), wide)
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkObjective(t, "fuzz", p, objectiveLabelings(rng, n, cs), false)
	})
}

// lowerBoundRoutes runs one route of the lower bound directly, whatever the
// route rule would pick: the row-pair scan, or the lattice (with no cap on
// its count table). Like labelKernel.lowerBound it omits the total weight.
func lowerBoundRoutes(lk *labelKernel, workers int, lattice bool) float64 {
	switch lk.width {
	case width8:
		return lowerBoundRouteW(lk, lk.lab8, workers, lattice)
	case width16:
		return lowerBoundRouteW(lk, lk.lab16, workers, lattice)
	default:
		return lowerBoundRouteW(lk, lk.lab32, workers, lattice)
	}
}

func lowerBoundRouteW[W labelWord](lk *labelKernel, lab []W, workers int, lattice bool) float64 {
	rows, cnt, scratch := distinctRows(lab, lk.n, lk.m)
	if lattice {
		return newLattice(lk, rows, cnt, scratch, math.MaxInt64).lowerBound(nil, workers)
	}
	return scanRowPairs(lk, rows, cnt, nil, workers)
}

// rowsProblem builds a Problem from explicit label rows: rows[v][i] is
// object v's label in clustering i (partition.Missing for a missing one).
func rowsProblem(t testing.TB, rows [][]int, opts ProblemOptions) *Problem {
	t.Helper()
	cs := make([]partition.Labels, len(rows[0]))
	for i := range cs {
		cs[i] = make(partition.Labels, len(rows))
		for v, r := range rows {
			cs[i][v] = r[i]
		}
	}
	p, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// plantedRows returns n label rows over m clusterings that mostly repeat:
// each row copies one of protos prototype rows with probability 0.9 and is
// drawn afresh otherwise. Cells are labels 0..4, or missing with
// probability pMiss.
func plantedRows(rng *rand.Rand, n, m, protos int, pMiss float64) [][]int {
	draw := func() []int {
		r := make([]int, m)
		for i := range r {
			if rng.Float64() < pMiss {
				r[i] = partition.Missing
			} else {
				r[i] = rng.Intn(5)
			}
		}
		return r
	}
	ps := make([][]int, protos)
	for i := range ps {
		ps[i] = draw()
	}
	rows := make([][]int, n)
	for v := range rows {
		if rng.Float64() < 0.9 {
			rows[v] = ps[rng.Intn(protos)]
		} else {
			rows[v] = draw()
		}
	}
	return rows
}

// uniqueRows returns n pairwise distinct label rows over m clusterings: the
// base-6 digits of n distinct random codes, digit 5 standing for a missing
// label when withMissing (and the codes drawn from base 5 otherwise).
func uniqueRows(rng *rand.Rand, n, m int, withMissing bool) [][]int {
	base := 5
	if withMissing {
		base = 6
	}
	space := 1
	for i := 0; i < m; i++ {
		space *= base
	}
	rows := make([][]int, n)
	for v, code := range rng.Perm(space)[:n] {
		rows[v] = make([]int, m)
		for i := range rows[v] {
			if d := code % base; d == 5 {
				rows[v][i] = partition.Missing
			} else {
				rows[v][i] = d
			}
			code /= base
		}
	}
	return rows
}

// rowKeys returns each object's label row in p's input clusterings as a
// string key, read from p.Clusterings() and never from the packed block.
func rowKeys(p *Problem) []string {
	keys := make([]string, p.N())
	row := make([]int, len(p.Clusterings()))
	for v := range keys {
		for i, c := range p.Clusterings() {
			row[i] = c[v]
		}
		keys[v] = fmt.Sprint(row)
	}
	return keys
}

// nonSampleRows counts the distinct label rows among the objects a sample
// state leaves to the assignment pass (labels[v] == Missing).
func nonSampleRows(p *Problem, labels partition.Labels) int64 {
	seen := map[string]bool{}
	for v, key := range rowKeys(p) {
		if labels[v] == partition.Missing {
			seen[key] = true
		}
	}
	return int64(len(seen))
}

// sharedRows counts the distinct rows that sample members (labels[v] !=
// Missing) share with non-sample objects, and how many of those carry a
// missing label.
func sharedRows(p *Problem, labels partition.Labels) (shared, withMissing int) {
	keys := rowKeys(p)
	sampled := map[string]int{} // row key → a sample member carrying it
	for v, key := range keys {
		if labels[v] != partition.Missing {
			sampled[key] = v
		}
	}
	for v, key := range keys {
		u, ok := sampled[key]
		if labels[v] != partition.Missing || !ok {
			continue
		}
		delete(sampled, key)
		shared++
		for _, c := range p.Clusterings() {
			if c[u] == partition.Missing {
				withMissing++
				break
			}
		}
	}
	return shared, withMissing
}

// checkAssignOracle runs assignKernel on copies of one sample state at
// workers 1, 2 and 8 and at all three label widths, and requires labels bit
// for bit equal to assignReference's and sample.assign.rows_decided equal
// to the number of distinct non-sample rows. The wider packings multiply
// clustering 0's labels by a factor — an injective relabeling, so the
// sample state and every distance carry over — and leave the others
// narrow, which keeps the co-label histograms small.
func checkAssignOracle(t *testing.T, name string, p *Problem, labels partition.Labels, members [][]int) {
	t.Helper()
	want := labels.Clone()
	assignReference(p, want, members)
	rows := nonSampleRows(p, labels)
	for _, w := range []struct{ factor, width int }{{1, width8}, {300, width16}, {1 << 14, width32}} {
		cs := append([]partition.Labels(nil), p.Clusterings()...)
		cs[0] = cs[0].Clone()
		for v, l := range cs[0] {
			if l != partition.Missing {
				cs[0][v] = l * w.factor
			}
		}
		wp, err := NewProblem(cs, ProblemOptions{Weights: p.weights, MissingMode: p.missingMode, MissingTogether: p.missingP})
		if err != nil {
			t.Fatal(err)
		}
		if got := wp.kernel().width; got != w.width {
			t.Fatalf("%s: factor %d packs at width %d, want %d", name, w.factor, got, w.width)
		}
		for _, workers := range []int{1, 2, 8} {
			got := labels.Clone()
			rec := obs.New()
			wp.assignKernel(rec, nil, got, members, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s (width %d, workers %d): kernel and reference diverge at object %d: %d != %d",
						name, w.width, workers, i, got[i], want[i])
				}
			}
			if d := rec.Counters()["sample.assign.rows_decided"]; d != rows {
				t.Errorf("%s (width %d, workers %d): rows_decided = %d, want %d", name, w.width, workers, d, rows)
			}
		}
	}
}
