package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file evaluates the objective without scanning object pairs.
//
// Disagreement: D(C) = Σ_i w_i·d_V(C_i, C) is linear in the input
// clusterings, and each clustering's share is a handful of pair counts read
// off the contingency table of C_i against C (the Barthélemy–Leclerc
// identity). Within clustering i, a pair of objects both labeled in C_i
// pays w_i when exactly one of C_i and C puts it together; a pair touching
// a missing label in C_i pays missW_i = (1−p)·w_i when C puts it together
// and w_i − missW_i when C separates it. So
//
//	D(C) = Σ_i w_i·(A_i + B_i) + missW_i·S_i + (w_i − missW_i)·T_i
//
// with A_i the labeled pairs together in C_i only, B_i those together in C
// only, and S_i / T_i the missing-touching pairs together / apart in C —
// integers, counted per aggregate cluster. Under MissingAverage with missing
// labels each pair divides by its own vote weight, which does not decompose
// per clustering; that one regime keeps the pair scan.
//
// LowerBound: X_uv depends only on the two objects' label rows, so the
// bound sums over pairs of distinct rows, each weighted by the product of
// the rows' multiplicities, plus each row against its own duplicates.

// Disagreement returns the (expected) total number of unordered-pair
// disagreements D(C) = Σ_i d_V(C_i, C) between labels and the inputs. This
// is the objective of Problem 1 on the unordered-pair scale; the paper's
// ordered-pair figure is exactly twice this value. labels must have one
// entry per object; any int values work (they need not be normalized).
//
// It runs in O(n·m) time and O(n + k + L) memory (k the clusters of labels,
// L the largest input label bound) from per-clustering contingency counts,
// with no pair scan and no matrix. The counts are exact integers, summed in
// clustering order. The exception is MissingAverage on inputs with missing
// labels: there each pair averages over its own voters, and the objective
// takes the O(m·n²) pair scan over the label kernel.
func (p *Problem) Disagreement(labels partition.Labels) float64 {
	if len(labels) != p.n {
		panic(fmt.Sprintf("core: Disagreement got %d labels for %d objects", len(labels), p.n))
	}
	lk := p.kernel()
	if lk.average && lk.anyMiss {
		return p.totalWeight * corrclust.Cost(lk, labels)
	}
	return lk.disagreement(labels)
}

// LowerBound returns m · Σ_{u<v} min(X_uv, 1−X_uv), a lower bound on the
// disagreement of every possible clustering (the "Lower bound" rows of
// Tables 2 and 3).
//
// It scans pairs of distinct label rows rather than pairs of objects: O(n·m
// log n) to find the d distinct rows plus O(m·d²) for their pairs, in O(n +
// m·d) memory, on GOMAXPROCS workers. The row pairs are summed in
// fixed-size blocks reduced in block order, so the value is identical at
// every worker count and label width.
func (p *Problem) LowerBound() float64 { return p.lowerBound(nil, 0) }

// lowerBound is LowerBound on workers goroutines (0 = GOMAXPROCS), with rec
// (may be nil) receiving evaluate.distinct_rows and evaluate.row_pairs.
func (p *Problem) lowerBound(rec *obs.Recorder, workers int) float64 {
	return p.totalWeight * p.kernel().lowerBound(rec, workers)
}

// Evaluate returns p.Disagreement(labels) and p.LowerBound() under one
// "evaluate" span on rec (may be nil), with the lower bound's row blocks on
// workers goroutines (0 = GOMAXPROCS; the value does not depend on it). It
// is the objective step AggregateCSV and the CLI run after aggregating.
func Evaluate(p *Problem, labels partition.Labels, workers int, rec *obs.Recorder) (disagreement, lowerBound float64) {
	sp := rec.Start("evaluate")
	defer sp.End()
	return p.Disagreement(labels), p.lowerBound(rec, workers)
}

// pairsOf returns c(c−1)/2, the unordered pairs among c objects.
func pairsOf(c int64) int64 { return c * (c - 1) / 2 }

// denseLabelCap is the label range that direct-indexed tallies accept over
// n objects: wider ranges are compacted to first-appearance ids first, so
// tally memory follows n, never the label alphabet.
func denseLabelCap(n int) int { return 2*n + 64 }

// disagreement is the contingency-count objective (see the file comment):
// the objects are bucketed once by aggregate cluster, then each clustering's
// labels are gathered in bucket order and tallied bucket by bucket, with the
// per-label tallies reset through the bucket's own members.
func (lk *labelKernel) disagreement(labels partition.Labels) float64 {
	n := lk.n
	if n < 2 {
		return 0
	}
	order, start := clusterBuckets(labels)
	var togetherC int64 // pairs together in C
	for c := 1; c < len(start); c++ {
		togetherC += pairsOf(int64(start[c] - start[c-1]))
	}
	var bound int32
	for _, b := range lk.maxLab {
		bound = max(bound, b)
	}
	tally := make([]int32, min(int(bound), denseLabelCap(n)))
	col := make([]int32, n)
	var d float64
	for i := 0; i < lk.m; i++ {
		lk.gatherColumn(i, order, col)
		if int(lk.maxLab[i]) > len(tally) {
			compactColumn(col)
		}
		// both: labeled pairs together in C_i and in C; presentC: labeled
		// pairs together in C; missing: objects without a label in C_i.
		var both, presentC, missing int64
		for c := 1; c < len(start); c++ {
			mem := col[start[c-1]:start[c]]
			miss := 0
			for _, l := range mem {
				if l < 0 {
					miss++
					continue
				}
				both += int64(tally[l])
				tally[l]++
			}
			for _, l := range mem {
				if l >= 0 {
					tally[l] = 0
				}
			}
			presentC += pairsOf(int64(len(mem) - miss))
			missing += int64(miss)
		}
		var togetherI int64 // labeled pairs together in C_i
		for _, l := range col {
			if l >= 0 {
				togetherI += int64(tally[l])
				tally[l]++
			}
		}
		for _, l := range col {
			if l >= 0 {
				tally[l] = 0
			}
		}
		a, b := togetherI-both, presentC-both
		s := togetherC - presentC
		t := pairsOf(int64(n)) - pairsOf(int64(n)-missing) - s
		// The explicit float64 conversions round each product before the
		// adds, forbidding a fused multiply-add on every GOARCH.
		w, missW := lk.w[i], lk.missW[i]
		d += float64(w*float64(a+b)) + float64(missW*float64(s)) + float64((w-missW)*float64(t))
	}
	return d
}

// clusterBuckets counting-sorts the objects by their label: cluster c's
// members are order[start[c]:start[c+1]], in object order. Labels spanning
// at most denseLabelCap(n) values index the counts directly; any other
// labeling (negative, huge, or sparse values) is first compacted to
// first-appearance ids. O(n + k) time and memory.
func clusterBuckets(labels partition.Labels) (order, start []int32) {
	n := len(labels)
	ids := make([]int32, n)
	lo, hi := slices.Min(labels), slices.Max(labels)
	k := 0
	if uint(hi)-uint(lo) < uint(denseLabelCap(n)) {
		for v, l := range labels {
			ids[v] = int32(l - lo)
		}
		k = hi - lo + 1
	} else {
		seen := make(map[int]int32)
		for v, l := range labels {
			id, ok := seen[l]
			if !ok {
				id = int32(len(seen))
				seen[l] = id
			}
			ids[v] = id
		}
		k = len(seen)
	}
	start = make([]int32, k+1)
	for _, id := range ids {
		start[id+1]++
	}
	for c := 1; c <= k; c++ {
		start[c] += start[c-1]
	}
	// Placing advances start[c] to the old start[c+1]; shift it back after.
	order = make([]int32, n)
	for v, id := range ids {
		order[start[id]] = int32(v)
		start[id]++
	}
	copy(start[1:], start[:k])
	start[0] = 0
	return order, start
}

// gatherColumn writes clustering i's label of each object in order into
// dst, missing labels as −1.
func (lk *labelKernel) gatherColumn(i int, order, dst []int32) {
	switch lk.width {
	case width8:
		gatherColumnW(lk.lab8, lk.m, i, order, dst)
	case width16:
		gatherColumnW(lk.lab16, lk.m, i, order, dst)
	default:
		gatherColumnW(lk.lab32, lk.m, i, order, dst)
	}
}

// gatherColumnW is the width-specialized column gather.
func gatherColumnW[W labelWord](lab []W, m, i int, order, dst []int32) {
	sentinel := missingWord[W]()
	for j, v := range order {
		if l := lab[int(v)*m+i]; l == sentinel {
			dst[j] = -1
		} else {
			dst[j] = int32(l)
		}
	}
}

// compactColumn relabels the present labels of col to first-appearance ids
// (below len(col)), leaving missing entries at −1.
func compactColumn(col []int32) {
	seen := make(map[int32]int32)
	for j, l := range col {
		if l < 0 {
			continue
		}
		id, ok := seen[l]
		if !ok {
			id = int32(len(seen))
			seen[l] = id
		}
		col[j] = id
	}
}

// lowerBoundBlock is the number of distinct rows in one lower-bound work
// unit. It is fixed so the partial sums, and their block-order reduction,
// do not depend on the worker count.
const lowerBoundBlock = 64

// lowerBound returns Σ_{u<v} min(X_uv, 1−X_uv) over the distinct label
// rows (see LowerBound).
func (lk *labelKernel) lowerBound(rec *obs.Recorder, workers int) float64 {
	switch lk.width {
	case width8:
		return lowerBoundW(lk, lk.lab8, rec, workers)
	case width16:
		return lowerBoundW(lk, lk.lab16, rec, workers)
	default:
		return lowerBoundW(lk, lk.lab32, rec, workers)
	}
}

// lowerBoundW is the width-specialized lower bound. Distinct row a with cnt
// copies pairs with each later row b at weight cnt_a·cnt_b, and with its
// own duplicates at C(cnt_a, 2) — evaluated on the row against itself,
// which is X between two distinct objects sharing the row (nonzero when the
// row has missing labels), never Dist(v, v).
func lowerBoundW[W labelWord](lk *labelKernel, lab []W, rec *obs.Recorder, workers int) float64 {
	m := lk.m
	rows, miss, cnt := distinctRows(lab, lk.hasMiss, lk.n, m)
	d := len(cnt)
	dup := 0
	for _, c := range cnt {
		if c > 1 {
			dup++
		}
	}
	rec.Add("evaluate.distinct_rows", int64(d))
	rec.Add("evaluate.row_pairs", pairsOf(int64(d))+int64(dup))

	blocks := (d + lowerBoundBlock - 1) / lowerBoundBlock
	partial := make([]float64, blocks)
	sumBlock := func(blk int) {
		var s float64
		for a := blk * lowerBoundBlock; a < min(d, (blk+1)*lowerBoundBlock); a++ {
			ra := rows[a*m : a*m+m]
			ca := int64(cnt[a])
			// The explicit float64 conversions round each product before the
			// add, forbidding a fused multiply-add on every GOARCH.
			if ca > 1 {
				x := pairDist(lk, ra, ra, miss[a])
				s += float64(float64(pairsOf(ca)) * math.Min(x, 1-x))
			}
			for b := a + 1; b < d; b++ {
				x := pairDist(lk, ra, rows[b*m:b*m+m], miss[a] || miss[b])
				s += float64(float64(ca*int64(cnt[b])) * math.Min(x, 1-x))
			}
		}
		partial[blk] = s
	}
	parallelFor(blocks, workers, "evaluate", sumBlock)
	var lb float64
	for _, s := range partial {
		lb += s
	}
	return lb
}

// distinctRows returns the distinct label rows of the n·m block lab in
// first-appearance order, copied contiguously (row a at rows[a*m:a*m+m]),
// with each row's missing flag and multiplicity. Duplicates are found by
// sorting an int32 permutation of the objects by row, so the scratch is
// two int32 per object.
func distinctRows[W labelWord](lab []W, hasMiss []bool, n, m int) (rows []W, miss []bool, cnt []int32) {
	row := func(v int32) []W { return lab[int(v)*m : int(v)*m+m] }
	perm := make([]int32, n)
	for v := range perm {
		perm[v] = int32(v)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := slices.Compare(row(a), row(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// cnt[v] is the multiplicity of v's row when v is the row's first
	// appearance, and 0 otherwise.
	cnt = make([]int32, n)
	d := 0
	for s := 0; s < n; d++ {
		e := s + 1
		for e < n && slices.Equal(row(perm[s]), row(perm[e])) {
			e++
		}
		cnt[perm[s]] = int32(e - s)
		s = e
	}
	rows = make([]W, 0, d*m)
	miss = make([]bool, 0, d)
	for v, c := range cnt {
		if c > 0 {
			rows = append(rows, row(int32(v))...)
			miss = append(miss, hasMiss[v])
			cnt[len(miss)-1] = c // in place: len(miss)−1 ≤ v
		}
	}
	return rows, miss, cnt[:d]
}
