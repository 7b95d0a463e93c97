package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
// LowerBound: X_uv depends only on each clustering's state on the pair —
// equal, different, or touching a missing label — so the bound is a sum
// over agreement classes, each pair count exact, from a walk over the
// subsets of the clusterings (see lattice). Wide inputs, where 2^m subsets
// cost more than the pairs of distinct rows, scan those row pairs instead.

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
// It finds the d distinct label rows in O(n·m log n), then counts the
// object pairs of each agreement class on the subset lattice of the m
// clusterings: at most 2^m·d row steps (far fewer when groups thin out)
// plus one distance per class, in O(n + m·d) memory. When 2^m·d would
// exceed m·d²/2, or the class table would outgrow the rows (see
// latticeCheaper and newLattice), it scans the O(m·d²) row pairs instead.
// Both routes run on GOMAXPROCS workers in fixed work units, so the value
// is identical at every worker count and label width.
func (p *Problem) LowerBound() float64 { return p.lowerBound(nil, 0) }

// lowerBound is LowerBound on workers goroutines (0 = GOMAXPROCS), with rec
// (may be nil) receiving evaluate.distinct_rows and the route's work
// counters: evaluate.lattice_groups and evaluate.lattice_classes, or
// evaluate.row_pairs.
func (p *Problem) lowerBound(rec *obs.Recorder, workers int) float64 {
	return p.totalWeight * p.kernel().lowerBound(rec, workers)
}

// Evaluate returns p.Disagreement(labels) and p.LowerBound() under one
// "evaluate" span on rec (may be nil), with the lower bound's work units on
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

// lowerBoundW is the width-specialized lower bound: it finds the distinct
// rows, then counts pairs on the subset lattice when the route rule allows
// (latticeCheaper, and a count table newLattice can fit) and scans the row
// pairs otherwise.
func lowerBoundW[W labelWord](lk *labelKernel, lab []W, rec *obs.Recorder, workers int) float64 {
	rows, cnt, scratch := distinctRows(lab, lk.n, lk.m)
	d := len(cnt)
	rec.Add("evaluate.distinct_rows", int64(d))
	if latticeCheaper(lk.m, d) {
		if lt := newLattice(lk, rows, cnt, scratch, int64(lk.m)*int64(d)); lt != nil {
			return lt.lowerBound(rec, workers)
		}
	}
	return scanRowPairs(lk, rows, cnt, rec, workers)
}

// lowerBoundBlock is the number of distinct rows in one row-pair scan work
// unit. It is fixed so the partial sums, and their block-order reduction,
// do not depend on the worker count.
const lowerBoundBlock = 64

// scanRowPairs is the row-pair route of the lower bound. Distinct row a
// with cnt copies pairs with each later row b at weight cnt_a·cnt_b, and
// with its own duplicates at C(cnt_a, 2) — evaluated on the row against
// itself, which is X between two distinct objects sharing the row (nonzero
// when the row has missing labels), never Dist(v, v). The rows are summed
// in fixed blocks on workers, reduced in block order.
func scanRowPairs[W labelWord](lk *labelKernel, rows []W, cnt []int32, rec *obs.Recorder, workers int) float64 {
	m, d := lk.m, len(cnt)
	miss := make([]bool, d)
	dup := 0
	for a, c := range cnt {
		miss[a] = slices.Contains(rows[a*m:a*m+m], missingWord[W]())
		if c > 1 {
			dup++
		}
	}
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

// latticeCheaper is the time half of the route rule: the lattice visits up
// to 2^m subsets of the clusterings over the d rows, the scan compares m
// labels for each of d²/2 row pairs, so the lattice may run when
// 2^m·d ≤ m·d²/2. Wide inputs (Votes, m = 16; Mushrooms, m = 22) fail it.
// The memory half is newLattice's table cap. Both read only m, d, and the
// missing masks that occur, so the route, like the value, never depends on
// the worker count or the label width.
func latticeCheaper(m, d int) bool {
	return m < 31 && int64(1)<<(m+1) <= int64(m)*int64(d)
}

// lattice is the subset-lattice route of the lower bound. X_uv depends only
// on each clustering's state on the pair — equal, different, or touching a
// missing label — so it is a function of E, the clusterings where the pair
// agrees, and M = μ_u ∪ μ_v, the union of the two rows' missing masks. The
// lattice counts N(E, M), the object pairs of each class, exactly:
//
//   - a depth-first walk over the subsets S of the clusterings refines one
//     permutation of the rows in place, sorting each parent group by the
//     next clustering's label (missing last), so each visit sees the rows
//     grouped by their projection onto S; a row missing any clustering in
//     S sits out;
//   - each group of two or more rows adds its pairs of distinct rows
//     (multiplicity products) to F(S, μ_a ∪ μ_b), the pairs agreeing on at
//     least S;
//   - a superset Möbius transform over S turns F(·, M) into N(·, M), and
//     each row's pairs with its own duplicates, C(cnt, 2) of class
//     (complement of μ, μ), are added after it.
//
// The lower bound is then Σ N(E, M)·min(x, 1−x), with x from pairDist on
// two synthetic rows in state (E, M) — the float walk the scan makes per
// pair — summed in mask order. The counts are integers, so the value does
// not depend on the work split: the walk runs in fixed units on workers.
type lattice[W labelWord] struct {
	lk   *labelKernel
	m, d int
	rows []W     // distinct rows, row a at rows[a*m : a*m+m]
	cnt  []int32 // multiplicity of each row
	// class[a] indexes row a's missing mask in masks, the distinct masks
	// in first-appearance order.
	class []int32
	masks []uint32
	// block[M] is the offset in f of the counts for union mask M, or −1
	// when no two rows (nor one row with itself) have missing-mask union M.
	// M's block holds one count per subset S of the clusterings outside M,
	// indexed by S's bits outside M packed low (compress): F(S, M) during
	// the walk, N(S, M) after the Möbius transform.
	block []int
	f     []int64
}

// newLattice builds the lattice route over the distinct rows, reusing
// scratch (at least d int32) for the row classes. It returns nil when the
// count table would exceed maxCells entries — the memory half of the route
// rule, which production sets to m·d, the size of the distinct rows.
func newLattice[W labelWord](lk *labelKernel, rows []W, cnt, scratch []int32, maxCells int64) *lattice[W] {
	m, d := lk.m, len(cnt)
	lt := &lattice[W]{lk: lk, m: m, d: d, rows: rows, cnt: cnt, class: scratch[:d], block: make([]int, 1<<m)}
	for mu := range lt.block {
		lt.block[mu] = -1
	}
	// Number the masks, with block as the mask → class map.
	sentinel := missingWord[W]()
	for a := 0; a < d; a++ {
		var mu uint32
		for i, l := range rows[a*m : a*m+m] {
			if l == sentinel {
				mu |= 1 << i
			}
		}
		if lt.block[mu] < 0 {
			lt.block[mu] = len(lt.masks)
			lt.masks = append(lt.masks, mu)
		}
		lt.class[a] = int32(lt.block[mu])
	}
	for _, mu := range lt.masks {
		lt.block[mu] = -1
	}
	// Mark the unions (0), then lay their blocks out in mask order.
	var cells int64
	for i, x := range lt.masks {
		for _, y := range lt.masks[i:] {
			if u := x | y; lt.block[u] < 0 {
				lt.block[u] = 0
				if cells += int64(1) << (m - bits.OnesCount32(u)); cells > maxCells {
					return nil
				}
			}
		}
	}
	off := 0
	for mu, b := range lt.block {
		if b == 0 {
			lt.block[mu] = off
			off += 1 << (m - bits.OnesCount32(uint32(mu)))
		}
	}
	lt.f = make([]int64, off)
	return lt
}

// latticeScratch is one worker's state: the row permutation it refines and
// the per-class tallies of the group being counted.
type latticeScratch struct {
	perm    []int32
	h, h2   []int64 // per mask class: Σ cnt and Σ cnt² over the group's rows
	touched []int32 // classes with nonzero h
	groups  int64   // groups tallied
}

func (lt *lattice[W]) newScratch() *latticeScratch {
	q := len(lt.masks)
	return &latticeScratch{
		perm:    make([]int32, lt.d),
		h:       make([]int64, q),
		h2:      make([]int64, q),
		touched: make([]int32, 0, q),
	}
}

// lowerBound walks the lattice and returns Σ_{u<v} min(X_uv, 1−X_uv),
// recording on rec evaluate.lattice_groups, the groups tallied, and
// evaluate.lattice_classes, the classes with pairs (one pairDist each).
//
// The walk splits into fixed units: S = ∅ first, then one unit per pair
// j0 < j1 of clusterings covering the subsets whose two smallest members
// they are (the unit for j1 = j0+1 also takes {j0}), and one for {m−1}.
// Units write disjoint subsets' counts, so they share f.
func (lt *lattice[W]) lowerBound(rec *obs.Recorder, workers int) float64 {
	m := lt.m
	sc := lt.newScratch()
	identity(sc.perm)
	var units [][2]int // largest subtrees first
	if lt.d >= 2 {
		lt.tally(sc, 0, sc.perm)
		for j1 := 1; j1 < m; j1++ {
			for j0 := 0; j0 < j1; j0++ {
				units = append(units, [2]int{j0, j1})
			}
		}
		units = append(units, [2]int{m - 1, -1})
	}
	// Each worker holds at most one scratch at a time, so a pool one larger
	// than the worker count never blocks a put.
	pool := make(chan *latticeScratch, effectiveWorkers(workers)+1)
	pool <- sc
	parallelFor(len(units), workers, "evaluate", func(u int) {
		var sc *latticeScratch
		select {
		case sc = <-pool:
		default:
			sc = lt.newScratch()
		}
		lt.runUnit(sc, units[u][0], units[u][1])
		pool <- sc
	})
	var groups int64
	for len(pool) > 0 {
		groups += (<-pool).groups
	}
	rec.Add("evaluate.lattice_groups", groups)

	// Möbius: N(E, M) = Σ_{S ⊇ E} (−1)^{|S∖E|} F(S, M), per bit in place.
	for mu, off := range lt.block {
		if off < 0 {
			continue
		}
		k := m - bits.OnesCount32(uint32(mu))
		blk := lt.f[off : off+1<<k]
		for b := 0; b < k; b++ {
			for s := range blk {
				if s>>b&1 == 0 {
					blk[s] -= blk[s|1<<b]
				}
			}
		}
	}
	full := uint32(1)<<m - 1
	for a, c := range lt.cnt {
		if c > 1 {
			mu := lt.masks[lt.class[a]]
			lt.f[lt.at(full&^mu, mu)] += pairsOf(int64(c))
		}
	}

	sentinel := missingWord[W]()
	ru, rv := make([]W, m), make([]W, m)
	var lb float64
	var classes int64
	for mu, off := range lt.block {
		if off < 0 {
			continue
		}
		k := m - bits.OnesCount32(uint32(mu))
		for e, n := range lt.f[off : off+1<<k] {
			if n == 0 {
				continue
			}
			classes++
			agree := expand(uint32(e), uint32(mu))
			for i := range ru {
				switch {
				case mu>>i&1 != 0:
					ru[i], rv[i] = sentinel, 0
				case agree>>i&1 != 0:
					ru[i], rv[i] = 0, 0
				default:
					ru[i], rv[i] = 0, 1
				}
			}
			x := pairDist(lt.lk, ru, rv, mu != 0)
			// The explicit float64 conversion rounds the product before the
			// add, forbidding a fused multiply-add on every GOARCH.
			lb += float64(float64(n) * math.Min(x, 1-x))
		}
	}
	rec.Add("evaluate.lattice_classes", classes)
	return lb
}

// runUnit walks the unit (j0, j1) on sc (see lowerBound); j1 < 0 is the
// unit holding only {j0}.
func (lt *lattice[W]) runUnit(sc *latticeScratch, j0, j1 int) {
	identity(sc.perm)
	lt.groups(sc.perm, j0, func(g []int32) {
		if j1 < 0 || j1 == j0+1 {
			lt.tally(sc, 1<<j0, g)
		}
		if j1 >= 0 {
			s := uint32(1)<<j0 | 1<<j1
			lt.groups(g, j1, func(h []int32) {
				lt.tally(sc, s, h)
				lt.visit(sc, h, s, j1+1)
			})
		}
	})
}

// visit tallies every subset S ∪ {j}, j ≥ from, over the group g of rows
// agreeing on S, and recurses below each. A group of two rows stays that
// pair on every subset both agree on, so it adds its product to each such
// subset directly instead of refining.
func (lt *lattice[W]) visit(sc *latticeScratch, g []int32, s uint32, from int) {
	if len(g) == 2 {
		m, a, b := lt.m, int(g[0]), int(g[1])
		ra, rb := lt.rows[a*m:a*m+m], lt.rows[b*m:b*m+m]
		var agree uint32
		for j := from; j < m; j++ {
			if ra[j] == rb[j] && ra[j] != missingWord[W]() {
				agree |= 1 << j
			}
		}
		mu := lt.masks[lt.class[a]] | lt.masks[lt.class[b]]
		w := int64(lt.cnt[a]) * int64(lt.cnt[b])
		for t := agree; t != 0; t = (t - 1) & agree {
			lt.f[lt.at(s|t, mu)] += w
			sc.groups++
		}
		return
	}
	for j := from; j < lt.m; j++ {
		t := s | 1<<j
		lt.groups(g, j, func(h []int32) {
			lt.tally(sc, t, h)
			lt.visit(sc, h, t, j+1)
		})
	}
}

// groups sorts g in place by clustering j's label, missing last, and calls
// f on each run of two or more rows sharing a present label. f may reorder
// its run but nothing outside it.
func (lt *lattice[W]) groups(g []int32, j int, f func(run []int32)) {
	m, rows := lt.m, lt.rows
	label := func(r int32) W { return rows[int(r)*m+j] }
	sortByLabel(g, rows[j:], m, bits.Len(uint(len(g))))
	sentinel := missingWord[W]()
	for a := 0; a < len(g); {
		l := label(g[a])
		if l == sentinel {
			return
		}
		b := a + 1
		for b < len(g) && label(g[b]) == l {
			b++
		}
		if b-a >= 2 {
			f(g[a:b])
		}
		a = b
	}
}

// sortByLabel sorts the rows g by their label col[r*m] (col starts at the
// clustering's first label) as uint32, which puts every width's missing
// sentinel last. Labels repeat heavily, so it is a three-way quicksort,
// with insertion sort on short runs and slices.SortFunc past depth
// partitions, bounding the worst case at O(g log g). Comparing labels
// inline, it runs about 1.5× faster than slices.SortFunc with a key
// closure.
func sortByLabel[W labelWord](g []int32, col []W, m, depth int) {
	key := func(r int32) uint32 { return uint32(col[int(r)*m]) }
	for len(g) > 12 {
		if depth == 0 {
			slices.SortFunc(g, func(a, b int32) int { return cmp.Compare(key(a), key(b)) })
			return
		}
		depth--
		x, y, z := key(g[0]), key(g[len(g)/2]), key(g[len(g)-1])
		pivot := max(min(x, y), min(max(x, y), z)) // median of three
		lo, i, hi := 0, 0, len(g)
		for i < hi {
			switch k := key(g[i]); {
			case k < pivot:
				g[lo], g[i] = g[i], g[lo]
				lo++
				i++
			case k > pivot:
				hi--
				g[i], g[hi] = g[hi], g[i]
			default:
				i++
			}
		}
		if lo < len(g)-hi {
			sortByLabel(g[:lo], col, m, depth)
			g = g[hi:]
		} else {
			sortByLabel(g[hi:], col, m, depth)
			g = g[:lo]
		}
	}
	for a := 1; a < len(g); a++ {
		r, k := g[a], key(g[a])
		b := a
		for ; b > 0 && key(g[b-1]) > k; b-- {
			g[b] = g[b-1]
		}
		g[b] = r
	}
}

// tally adds the pairs of distinct rows in group g, which agree on s, to
// F(s, μ_a ∪ μ_b), pairing the rows' mask classes rather than the rows.
func (lt *lattice[W]) tally(sc *latticeScratch, s uint32, g []int32) {
	sc.groups++
	touched := sc.touched[:0]
	for _, r := range g {
		k, c := lt.class[r], int64(lt.cnt[r])
		if sc.h[k] == 0 {
			touched = append(touched, k)
		}
		sc.h[k] += c
		sc.h2[k] += c * c
	}
	for i, x := range touched {
		hx, mx := sc.h[x], lt.masks[x]
		lt.f[lt.at(s, mx)] += (hx*hx - sc.h2[x]) / 2
		for _, y := range touched[i+1:] {
			lt.f[lt.at(s, mx|lt.masks[y])] += hx * sc.h[y]
		}
	}
	for _, x := range touched {
		sc.h[x], sc.h2[x] = 0, 0
	}
	sc.touched = touched
}

// at returns the index in f of the count for subset s and union mask mu
// (s ∩ mu = ∅).
func (lt *lattice[W]) at(s, mu uint32) int {
	return lt.block[mu] + int(compress(s, mu))
}

// compress packs the bits of s outside mu into the low bits, in order.
func compress(s, mu uint32) uint32 {
	if mu == 0 {
		return s
	}
	var out uint32
	k := 0
	for i := 0; s>>i != 0; i++ {
		if mu>>i&1 == 0 {
			out |= (s >> i & 1) << k
			k++
		}
	}
	return out
}

// expand is compress's inverse: the low bits of e spread over the bit
// positions outside mu, in order.
func expand(e, mu uint32) uint32 {
	var s uint32
	for i := 0; e != 0; i++ {
		if mu>>i&1 == 0 {
			s |= (e & 1) << i
			e >>= 1
		}
	}
	return s
}

// identity sets perm[a] = a.
func identity(perm []int32) {
	for a := range perm {
		perm[a] = int32(a)
	}
}

// distinctRows returns the distinct label rows of the n·m block lab in
// first-appearance order, copied contiguously (row a at rows[a*m:a*m+m]),
// with each row's multiplicity. Duplicates are found by sorting an int32
// permutation of the objects by row, so the scratch is two int32 per
// object; the permutation, free once the rows are found, is returned for
// reuse.
func distinctRows[W labelWord](lab []W, n, m int) (rows []W, cnt, scratch []int32) {
	row := func(v int32) []W { return lab[int(v)*m : int(v)*m+m] }
	perm := make([]int32, n)
	identity(perm)
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
	a := 0
	for v, c := range cnt {
		if c > 0 {
			rows = append(rows, row(int32(v))...)
			cnt[a] = c // in place: a ≤ v
			a++
		}
	}
	return rows, cnt[:d], perm
}
