package core

// This file is the columnar label kernel: the m input clusterings packed
// into one row-major per-object block of labels, so that distance
// evaluation becomes a tight contiguous label-compare loop instead of a
// per-pair walk over a slice of slices. It is the one production
// implementation of the Section 3 distance X_uv: Problem.Dist,
// Disagreement, LowerBound, the non-materialized methods and SAMPLING's
// assignment all read it.
//
// The kernel aliases the Problem's packed block (packed.go), which stores
// object v's labels as lab[v*m : v*m+m], and adds the per-clustering
// weights and coin-model missing contribution premultiplied; the block
// carries a per-object has-missing flag. One-against-many evaluation
// (DistRowTo) streams two contiguous label blocks per pair; pairs where
// neither side has a missing label and the weights are uniform collapse to
// an integer label-mismatch count. Every loop performs the same float
// operations in the same order as a plain per-clustering walk over the
// []int labels (premultiplied products round identically to inline ones),
// so kernel distances are bit-identical to that walk — not merely close.
// The walk lives in the tests as the oracle probeDist, and the equivalence
// tests and FuzzLabelKernelEquiv pin the kernel against it exactly.
//
// Width packing: labels are stored at the minimum width that fits the
// label bound — uint8, uint16, or int32 — selected by the packing builder
// from the same per-clustering bounds that size the co-label histograms. The
// working assumption (and the common case by far) is k ≤ 256 clusters per
// input clustering: then every label block packs to one byte per
// clustering, quartering the memory traffic of the O(n·m) assignment scan
// relative to the int32 layout and keeping the per-clustering co-label
// histograms cache-resident. Missing labels take the width's all-ones
// sentinel (0xFF / 0xFFFF / −1), one past the largest storable label, so
// uint8 holds labels 0..254, uint16 labels 0..65534, and int32 everything
// else. Every inner loop (pairDist, DistRowTo, histogram build and
// evaluation) is a generic function instantiated per width; the float
// arithmetic is width-independent, so all three widths produce bit-identical
// distances (TestLabelKernelWidthsBitIdentical, FuzzLabelKernelWidths).
//
// On top of the kernel, SAMPLING's assignment phase (sampling.go) replaces
// its O(m·s) per-object probing with O(m·k) co-label histograms: for each
// clustering, the count of sample members per (input label, sample cluster)
// is precomputed once, and M(v, C_c) for all k sample clusters falls out of
// one pass over v's label block. See colabelHist below and
// docs/PERFORMANCE.md for the arithmetic and the equivalence contract.

// labelWord is a storage width for packed labels. The missing sentinel is
// the type's all-ones value (see missingWord), so the usable label range is
// [0, maxOf(W)−1] for the unsigned widths and all non-negative ints for
// int32 (whose sentinel −1 matches the historical encoding).
type labelWord interface {
	uint8 | uint16 | int32
}

// missingWord returns the width's missing-label sentinel: all bits set
// (255, 65535, or −1 for int32).
func missingWord[W labelWord]() W {
	var zero W
	return zero - 1
}

// Storage widths in bytes per label.
const (
	width8  = 1
	width16 = 2
	width32 = 4
)

// widthFor selects the narrowest width whose sentinel does not collide with
// a stored label: bound is the exclusive upper bound on present labels.
func widthFor(bound int32) int {
	switch {
	case bound <= 0xFF: // labels ≤ 254, sentinel 255 free
		return width8
	case bound <= 0xFFFF: // labels ≤ 65534, sentinel 65535 free
		return width16
	default:
		return width32
	}
}

// labelKernel is the packed columnar view of a Problem's input clusterings.
// It implements corrclust.Instance and corrclust.RowDistancer; distances
// are bit-identical at every storage width. The kernel is immutable after
// construction and safe for concurrent use.
type labelKernel struct {
	n, m int
	// width is the storage width in bytes per label (width8/width16/width32);
	// exactly one of lab8/lab16/lab32 is non-nil, holding object v's labels
	// across the m clusterings at lab[v*m : v*m+m], missing mapped to the
	// width's sentinel.
	width int
	lab8  []uint8
	lab16 []uint16
	lab32 []int32
	// maxLab[i] is the exclusive upper bound on clustering i's present
	// labels (0 when every label is missing), tracked by the packing
	// builder alongside width selection and reused as the co-label
	// histograms' default label bound (see buildColabelHist).
	maxLab []int32
	// w[i] is clustering i's weight (all 1 under uniform weights); missW[i]
	// is the premultiplied coin-model missing contribution (1−missingP)·w[i].
	w     []float64
	missW []float64
	// hasMiss[v] reports whether any clustering is missing a label on v;
	// uniform reports unit weights. Pairs where both flags are clean take
	// the integer-count fast path.
	hasMiss []bool
	anyMiss bool
	uniform bool

	average     bool // MissingAverage arithmetic
	totalWeight float64
}

// kernel returns the problem's labelKernel at the packed block's width,
// built at most once per Problem (cached under kernelOnce): evaluate +
// sample + lower-bound sequences share one zero-copy alias of the block.
func (p *Problem) kernel() *labelKernel {
	p.kernelOnce.Do(func() { p.kernelCached = p.packed.kernelFrom(p, 0) })
	return p.kernelCached
}

// N returns the number of objects.
func (lk *labelKernel) N() int { return lk.n }

// Dist returns the distance X_uv.
func (lk *labelKernel) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	miss := lk.hasMiss[u] || lk.hasMiss[v]
	m := lk.m
	switch lk.width {
	case width8:
		return pairDist(lk, lk.lab8[u*m:u*m+m], lk.lab8[v*m:v*m+m], miss)
	case width16:
		return pairDist(lk, lk.lab16[u*m:u*m+m], lk.lab16[v*m:v*m+m], miss)
	default:
		return pairDist(lk, lk.lab32[u*m:u*m+m], lk.lab32[v*m:v*m+m], miss)
	}
}

// pairDist evaluates one pair from its label blocks, generic over the
// storage width. miss gates the missing-label arithmetic: clean pairs take
// label-compare-only loops (an integer count under uniform weights), and
// either loop performs exactly the additions of a per-clustering walk, in
// the same order — the width never touches a float, so all widths agree bit
// for bit.
func pairDist[W labelWord](lk *labelKernel, bu, bv []W, miss bool) float64 {
	if !miss {
		// No missing labels on either side: both modes reduce to the
		// weighted separating fraction over the total weight (the average
		// mode's vote accumulation sums all weights in index order, which
		// is exactly how the constructors computed totalWeight).
		if lk.uniform {
			cnt := 0
			for i, lu := range bu {
				if lu != bv[i] {
					cnt++
				}
			}
			return float64(cnt) / lk.totalWeight
		}
		var x float64
		for i, lu := range bu {
			if lu != bv[i] {
				x += lk.w[i]
			}
		}
		return x / lk.totalWeight
	}
	sentinel := missingWord[W]()
	if lk.average {
		var x, votes float64
		for i, lu := range bu {
			lv := bv[i]
			if lu == sentinel || lv == sentinel {
				continue
			}
			w := lk.w[i]
			votes += w
			if lu != lv {
				x += w
			}
		}
		if votes == 0 {
			return 0.5
		}
		return x / votes
	}
	var x float64
	for i, lu := range bu {
		lv := bv[i]
		switch {
		case lu == sentinel || lv == sentinel:
			x += lk.missW[i]
		case lu != lv:
			x += lk.w[i]
		}
	}
	return x / lk.totalWeight
}

// DistRowTo evaluates v against many targets in one call:
// dst[j] = Dist(v, targets[j]), including zeros for diagonal hits. It
// satisfies corrclust.RowDistancer; dst must have len(targets) capacity.
// Safe for concurrent use with distinct dst buffers.
func (lk *labelKernel) DistRowTo(v int, targets []int, dst []float64) {
	switch lk.width {
	case width8:
		distRowTo(lk, lk.lab8, v, targets, dst)
	case width16:
		distRowTo(lk, lk.lab16, v, targets, dst)
	default:
		distRowTo(lk, lk.lab32, v, targets, dst)
	}
}

// distRowTo is the width-specialized DistRowTo loop.
func distRowTo[W labelWord](lk *labelKernel, lab []W, v int, targets []int, dst []float64) {
	m := lk.m
	bv := lab[v*m : v*m+m]
	missV := lk.hasMiss[v]
	for j, u := range targets {
		if u == v {
			dst[j] = 0
			continue
		}
		dst[j] = pairDist(lk, lab[u*m:u*m+m], bv, missV || lk.hasMiss[u])
	}
}

// histBoundCap bounds the per-clustering label range the co-label
// histograms size themselves by without rescanning the sample: when a
// clustering's global label bound (maxLab, tracked while packing) is
// at most this, the histogram reuses it directly — under the k ≤ 256
// assumption that is every clustering, and the cnt rows stay
// cache-resident. A wider clustering (e.g. an all-singletons input) falls
// back to one row-major scan over the sample members for the tight
// sample-observed bound, so histogram memory never scales with the global
// label count.
const histBoundCap = 1024

// colabelHist holds the co-label histograms of one sample clustering over
// the input clusterings: everything needed to evaluate M(v, C_c) for all k
// sample clusters in one O(m·k) pass over v's label block.
//
// For input clustering i with weight w_i and missing contribution
// missW_i = (1−p)·w_i, a sample cluster C_c splits into pres_i[c] members
// with a label in clustering i and miss_i[c] = |C_c| − pres_i[c] members
// without one. An object v with present label ℓ contributes to M(v, C_c)
//
//	w_i·(pres_i[c] − cnt_i[ℓ][c]) + missW_i·miss_i[c]
//	  = base[i][c] − w_i·cnt_i[ℓ][c],
//
// where cnt_i[ℓ][c] counts C_c's members carrying label ℓ in clustering i;
// an object missing in clustering i contributes missW_i·|C_c| = missAll[i][c].
// Summing the per-clustering contributions and dividing once by the total
// weight yields M(v, C_c) — the same per-clustering terms Dist sums per
// pair, associated per clustering instead of per member, so the
// histogram path is bit-identical to per-pair probing exactly where float
// addition on those terms is exact (dyadic instances; see
// docs/PERFORMANCE.md) and within float drift otherwise.
//
// The histograms do not apply under MissingAverage with missing labels
// present: there each pair divides by its own vote weight, which does not
// decompose per clustering. That regime keeps the kernel's row path
// (assignViaRows), which is bit-identical to probing unconditionally.
type colabelHist struct {
	k     int
	sizes []int // |C_c| for each sample cluster
	// Per input clustering i: labBound[i] bounds the labels with histogram
	// rows (labels ≥ labBound[i] have all-zero counts and take the base row
	// as is — the kernel's global bound by default, the sample-observed
	// bound for clusterings wider than histBoundCap),
	// cnt[i][ℓ*k+c] = w_i·(members of C_c labeled ℓ in clustering i),
	// base[i][c] and missAll[i][c] as derived above.
	labBound []int32
	cnt      [][]float64
	base     [][]float64
	missAll  [][]float64
}

// buildColabelHist builds the histograms for the given sample clusters
// (members holds original object indices per sample cluster) in
// O(s·m + m·L·k) time and O(m·L·k) space, L the per-clustering label
// bound. The bound comes for free from the packing builder (maxLab) for
// clusterings within histBoundCap; wider ones are tightened to the
// sample-observed bound by one extra row-major pass over the members. A
// label's absent histogram row is all zeros, so the larger default bound
// changes no arithmetic — base − 0 and base are the same float — and the
// paths stay bit-identical.
func (lk *labelKernel) buildColabelHist(members [][]int) *colabelHist {
	switch lk.width {
	case width8:
		return buildColabelHistW(lk, lk.lab8, members)
	case width16:
		return buildColabelHistW(lk, lk.lab16, members)
	default:
		return buildColabelHistW(lk, lk.lab32, members)
	}
}

// buildColabelHistW is the width-specialized histogram build.
func buildColabelHistW[W labelWord](lk *labelKernel, lab []W, members [][]int) *colabelHist {
	k, m := len(members), lk.m
	h := &colabelHist{
		k:        k,
		sizes:    make([]int, k),
		labBound: make([]int32, m),
		cnt:      make([][]float64, m),
		base:     make([][]float64, m),
		missAll:  make([][]float64, m),
	}
	for c, mem := range members {
		h.sizes[c] = len(mem)
	}
	// Label bounds: reuse the kernel's global per-clustering bound where it
	// keeps the histogram cache-resident; rescan the sample (one row-major
	// pass over the members for all remaining clusterings at once) only for
	// wider clusterings.
	sentinel := missingWord[W]()
	needScan := false
	for i, b := range lk.maxLab {
		if b <= histBoundCap {
			h.labBound[i] = b
		} else {
			h.labBound[i] = -1
			needScan = true
		}
	}
	if needScan {
		for _, mem := range members {
			for _, u := range mem {
				bu := lab[u*m : u*m+m]
				for i := range h.labBound {
					if lk.maxLab[i] <= histBoundCap {
						continue
					}
					if l := bu[i]; l != sentinel && int32(l) >= h.labBound[i] {
						h.labBound[i] = int32(l) + 1
					}
				}
			}
		}
		for i, b := range h.labBound {
			if b < 0 { // wide clustering absent from the sample
				h.labBound[i] = 0
			}
		}
	}
	// Counts: one row-major pass over the members fills every clustering's
	// histogram (raw integer counts and per-cluster missing tallies;
	// premultiplied below).
	miss := make([]int, m*k)
	for i := 0; i < m; i++ {
		h.cnt[i] = make([]float64, int(h.labBound[i])*k)
	}
	for c, mem := range members {
		for _, u := range mem {
			bu := lab[u*m : u*m+m]
			for i, l := range bu {
				if l == sentinel {
					miss[i*k+c]++
				} else {
					h.cnt[i][int(l)*k+c]++
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		w, missW := lk.w[i], lk.missW[i]
		base := make([]float64, k)
		missAll := make([]float64, k)
		for c := range base {
			pres := h.sizes[c] - miss[i*k+c]
			// The explicit float64 conversions round each product before
			// the add, forbidding a fused multiply-add on every GOARCH.
			base[c] = float64(w*float64(pres)) + float64(missW*float64(miss[i*k+c]))
			missAll[c] = missW * float64(h.sizes[c])
		}
		cnt := h.cnt[i]
		for idx := range cnt {
			cnt[idx] *= w
		}
		h.base[i] = base
		h.missAll[i] = missAll
	}
	return h
}

// affinities fills dst[c] = M(v, C_c) = Σ_{u∈C_c} X_vu for every sample
// cluster in one O(m·k) pass over v's label block. dst must have length k.
func (h *colabelHist) affinities(lk *labelKernel, v int, dst []float64) {
	switch lk.width {
	case width8:
		affinitiesW(h, lk, lk.lab8, v, dst)
	case width16:
		affinitiesW(h, lk, lk.lab16, v, dst)
	default:
		affinitiesW(h, lk, lk.lab32, v, dst)
	}
}

// affinitiesW is the width-specialized affinity evaluation.
func affinitiesW[W labelWord](h *colabelHist, lk *labelKernel, lab []W, v int, dst []float64) {
	for c := range dst {
		dst[c] = 0
	}
	m := lk.m
	bv := lab[v*m : v*m+m]
	sentinel := missingWord[W]()
	k := h.k
	for i, lv := range bv {
		if lv == sentinel {
			for c, ma := range h.missAll[i] {
				dst[c] += ma
			}
			continue
		}
		base := h.base[i]
		if int32(lv) >= h.labBound[i] {
			for c, b := range base {
				dst[c] += b
			}
			continue
		}
		cnt := h.cnt[i][int(lv)*k : int(lv+1)*k]
		for c, b := range base {
			dst[c] += b - cnt[c]
		}
	}
	for c := range dst {
		dst[c] /= lk.totalWeight
	}
}
