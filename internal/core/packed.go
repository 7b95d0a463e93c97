package core

import (
	"fmt"
	"math"

	"clusteragg/internal/partition"
)

// This file is the packed label block every Problem holds: input
// clusterings stream directly into the width-packed row-major label block
// the label kernel uses (labelkernel.go — uint8/uint16/int32, the width's
// all-ones missing sentinel), and the kernel aliases it with no repack. At
// m=6 clusterings of ≤255 labels, that is 6 bytes per object instead of 48.
// NewProblem packs []Labels through the column builder; ingest paths build
// the block directly and never materialize []int labels on the kernel path.
//
// Contiguous object ranges of a packed block alias as sub-views (view):
// the sharded SAMPLING tree cuts its per-shard subproblems out of the
// parent without copying a single label. Arbitrary index subsets (gather)
// copy rows into one fresh arena at the parent's width. Views share the
// parent's per-clustering label bounds — a looser bound only adds all-zero
// co-label histogram rows, which change no float arithmetic (see
// buildColabelHistW), so view kernels stay bit-identical to kernels built
// from a tight rescan.

// PackedClusterings is m input clusterings over n objects in the label
// kernel's storage format: object v's labels live at lab[v*m : v*m+m] at
// the narrowest width that fits, missing entries mapped to the width's
// sentinel. Build one with PackedBuilder (row streaming) or
// NewPackedColumns (column-at-a-time), then wrap it with NewProblemPacked.
// Immutable after Build and safe for concurrent use.
type PackedClusterings struct {
	n, m  int
	width int // bytes per label: width8, width16, or width32
	lab8  []uint8
	lab16 []uint16
	lab32 []int32
	// maxLab[i] is the exclusive upper bound on clustering i's present
	// labels; hasMiss[v] reports a missing label anywhere on object v;
	// anyMiss aggregates hasMiss. Same semantics as labelKernel's fields.
	maxLab  []int32
	hasMiss []bool
	anyMiss bool
}

// N returns the number of objects.
func (pc *PackedClusterings) N() int { return pc.n }

// M returns the number of clusterings.
func (pc *PackedClusterings) M() int { return pc.m }

// PackedBuilder accumulates labels into a PackedClusterings, starting at
// the one-byte width and widening in place the first time a label needs
// more. It runs in one of two modes: row streaming (NewPackedBuilder;
// AppendRow once per object, n open-ended — the CSV/gendata ingest shape)
// or column mode (NewPackedColumns; AppendColumn once per clustering over a
// fixed n — the dataset.Table shape, and the shape that preserves an
// existing column-major generator's RNG draw order). The zero value is not
// usable; modes cannot be mixed.
type PackedBuilder struct {
	m       int
	n       int // fixed object count (column mode); rows appended (row mode)
	cols    int // columns appended (column mode)
	colMode bool
	built   bool

	width   int
	lab8    []uint8
	lab16   []uint16
	lab32   []int32
	maxLab  []int32
	hasMiss []bool
	anyMiss bool
}

// NewPackedBuilder returns a row-streaming builder for m clusterings: call
// AppendRow once per object, then Build.
func NewPackedBuilder(m int) *PackedBuilder {
	if m < 1 {
		panic("core: PackedBuilder needs at least one clustering")
	}
	return &PackedBuilder{m: m, width: width8, maxLab: make([]int32, m)}
}

// NewPackedColumns returns a column-mode builder over exactly n objects:
// call AppendColumn once per clustering (m in total), then Build.
func NewPackedColumns(n, m int) *PackedBuilder {
	if m < 1 {
		panic("core: PackedBuilder needs at least one clustering")
	}
	if n < 0 {
		panic("core: negative object count")
	}
	return &PackedBuilder{
		m: m, n: n, colMode: true,
		width:   width8,
		lab8:    make([]uint8, n*m),
		maxLab:  make([]int32, m),
		hasMiss: make([]bool, n),
	}
}

// AppendRow appends one object's labels across the m clusterings (row
// mode). Labels must be in [0, math.MaxInt32) or partition.Missing; row
// length must be m.
func (b *PackedBuilder) AppendRow(row []int) error {
	if b.colMode || b.built {
		return fmt.Errorf("core: AppendRow on a %s builder", b.state())
	}
	if len(row) != b.m {
		return fmt.Errorf("core: row has %d labels, want %d", len(row), b.m)
	}
	var bound int32
	for i, l := range row {
		if l == partition.Missing {
			continue
		}
		if err := checkLabel(i, l); err != nil {
			return err
		}
		if l32 := int32(l) + 1; l32 > bound {
			bound = l32
		}
	}
	b.widen(widthFor(bound))
	miss := false
	for i, l := range row {
		if l == partition.Missing {
			miss = true
		} else if l32 := int32(l); l32 >= b.maxLab[i] {
			b.maxLab[i] = l32 + 1
		}
		switch b.width {
		case width8:
			b.lab8 = append(b.lab8, packWord[uint8](l))
		case width16:
			b.lab16 = append(b.lab16, packWord[uint16](l))
		default:
			b.lab32 = append(b.lab32, packWord[int32](l))
		}
	}
	b.hasMiss = append(b.hasMiss, miss)
	b.anyMiss = b.anyMiss || miss
	b.n++
	return nil
}

// AppendColumn appends one whole clustering (column mode). Labels must be
// in [0, math.MaxInt32) or partition.Missing; the column length must be n.
func (b *PackedBuilder) AppendColumn(col []int) error {
	if !b.colMode || b.built {
		return fmt.Errorf("core: AppendColumn on a %s builder", b.state())
	}
	if b.cols == b.m {
		return fmt.Errorf("core: all %d columns already appended", b.m)
	}
	if len(col) != b.n {
		return fmt.Errorf("core: clustering %d has %d objects, want %d: %w",
			b.cols, len(col), b.n, partition.ErrLengthMismatch)
	}
	ci := b.cols
	var bound int32
	for _, l := range col {
		if l == partition.Missing {
			continue
		}
		if err := checkLabel(ci, l); err != nil {
			return err
		}
		if l32 := int32(l) + 1; l32 > bound {
			bound = l32
		}
	}
	b.widen(widthFor(bound))
	b.maxLab[ci] = bound
	m := b.m
	switch b.width {
	case width8:
		for v, l := range col {
			b.lab8[v*m+ci] = packWord[uint8](l)
		}
	case width16:
		for v, l := range col {
			b.lab16[v*m+ci] = packWord[uint16](l)
		}
	default:
		for v, l := range col {
			b.lab32[v*m+ci] = packWord[int32](l)
		}
	}
	for v, l := range col {
		if l == partition.Missing {
			b.hasMiss[v] = true
			b.anyMiss = true
		}
	}
	b.cols++
	return nil
}

// checkLabel rejects a present label of clustering i that the block cannot
// store: negatives, and labels whose exclusive bound l+1 overflows int32
// (which would otherwise alias a small label or the missing sentinel).
func checkLabel(i, l int) error {
	if l < 0 {
		return fmt.Errorf("core: clustering %d: partition: invalid label %d", i, l)
	}
	if l >= math.MaxInt32 {
		return fmt.Errorf("core: clustering %d: label %d is not below %d", i, l, math.MaxInt32)
	}
	return nil
}

// Build finalizes the block. A column-mode builder must have received all m
// columns; the builder is unusable afterwards.
func (b *PackedBuilder) Build() (*PackedClusterings, error) {
	if b.built {
		return nil, fmt.Errorf("core: Build called twice")
	}
	if b.colMode && b.cols != b.m {
		return nil, fmt.Errorf("core: %d of %d columns appended", b.cols, b.m)
	}
	b.built = true
	return &PackedClusterings{
		n: b.n, m: b.m, width: b.width,
		lab8: b.lab8, lab16: b.lab16, lab32: b.lab32,
		maxLab: b.maxLab, hasMiss: b.hasMiss, anyMiss: b.anyMiss,
	}, nil
}

// state names the builder's mode for error messages.
func (b *PackedBuilder) state() string {
	switch {
	case b.built:
		return "finalized"
	case b.colMode:
		return "column-mode"
	default:
		return "row-mode"
	}
}

// widen grows the storage to the given width when the current one is
// narrower, re-encoding already-appended labels (sentinel to sentinel).
func (b *PackedBuilder) widen(to int) {
	if to <= b.width {
		return
	}
	switch {
	case b.width == width8 && to == width16:
		b.lab16, b.lab8 = widenWords[uint8, uint16](b.lab8), nil
	case b.width == width8 && to == width32:
		b.lab32, b.lab8 = widenWords[uint8, int32](b.lab8), nil
	default: // width16 -> width32
		b.lab32, b.lab16 = widenWords[uint16, int32](b.lab16), nil
	}
	b.width = to
}

// packWord encodes one label at width W (partition.Missing to the
// sentinel). The label was validated non-negative by the caller.
func packWord[W labelWord](l int) W {
	if l == partition.Missing {
		return missingWord[W]()
	}
	return W(l)
}

// widenWords re-encodes a label block at a wider width, mapping the source
// sentinel to the destination's. Capacity is preserved in row mode by
// keeping the same length (append continues on the new slice).
func widenWords[S, D labelWord](src []S) []D {
	dst := make([]D, len(src))
	sm, dm := missingWord[S](), missingWord[D]()
	for i, v := range src {
		if v == sm {
			dst[i] = dm
		} else {
			dst[i] = D(v)
		}
	}
	return dst
}

// appendWidened appends src to dst re-encoded at dst's (wider) width, the
// source sentinel mapped to the destination's.
func appendWidened[S, D labelWord](dst []D, src []S) []D {
	sm, dm := missingWord[S](), missingWord[D]()
	for _, v := range src {
		if v == sm {
			dst = append(dst, dm)
		} else {
			dst = append(dst, D(v))
		}
	}
	return dst
}

// stitchPacked concatenates sealed row segments into one contiguous block
// at the widest segment width. The result is bit-identical — label words,
// per-clustering bounds, missing flags — to the block a single row-mode
// builder over the same rows would produce: widths and bounds are maxima
// over segments of per-segment maxima, and widening maps sentinel to
// sentinel exactly like the builder's in-place widen.
func stitchPacked(segs []*PackedClusterings, m int) *PackedClusterings {
	n, width := 0, width8
	for _, s := range segs {
		n += s.n
		if s.width > width {
			width = s.width
		}
	}
	out := &PackedClusterings{
		n: n, m: m, width: width,
		maxLab:  make([]int32, m),
		hasMiss: make([]bool, 0, n),
	}
	switch width {
	case width8:
		out.lab8 = make([]uint8, 0, n*m)
	case width16:
		out.lab16 = make([]uint16, 0, n*m)
	default:
		out.lab32 = make([]int32, 0, n*m)
	}
	for _, s := range segs {
		for ci, b := range s.maxLab {
			if b > out.maxLab[ci] {
				out.maxLab[ci] = b
			}
		}
		out.hasMiss = append(out.hasMiss, s.hasMiss...)
		out.anyMiss = out.anyMiss || s.anyMiss
		switch width {
		case width8:
			out.lab8 = append(out.lab8, s.lab8...)
		case width16:
			if s.width == width8 {
				out.lab16 = appendWidened[uint8, uint16](out.lab16, s.lab8)
			} else {
				out.lab16 = append(out.lab16, s.lab16...)
			}
		default:
			switch s.width {
			case width8:
				out.lab32 = appendWidened[uint8, int32](out.lab32, s.lab8)
			case width16:
				out.lab32 = appendWidened[uint16, int32](out.lab32, s.lab16)
			default:
				out.lab32 = append(out.lab32, s.lab32...)
			}
		}
	}
	return out
}

// view aliases the contiguous object range [lo, hi): the label rows,
// missing flags, and label bounds are shared with the parent — no copies.
// anyMiss is recomputed over the range so the MissingAverage row-route
// decision matches a freshly-scanned kernel exactly.
func (pc *PackedClusterings) view(lo, hi int) *PackedClusterings {
	m := pc.m
	v := &PackedClusterings{
		n: hi - lo, m: m, width: pc.width,
		maxLab:  pc.maxLab,
		hasMiss: pc.hasMiss[lo:hi],
	}
	switch pc.width {
	case width8:
		v.lab8 = pc.lab8[lo*m : hi*m]
	case width16:
		v.lab16 = pc.lab16[lo*m : hi*m]
	default:
		v.lab32 = pc.lab32[lo*m : hi*m]
	}
	for _, hm := range v.hasMiss {
		if hm {
			v.anyMiss = true
			break
		}
	}
	return v
}

// gather copies the given object rows into one fresh arena at the parent's
// width: m·width bytes per object.
func (pc *PackedClusterings) gather(idx []int) *PackedClusterings {
	m := pc.m
	g := &PackedClusterings{
		n: len(idx), m: m, width: pc.width,
		maxLab:  pc.maxLab,
		hasMiss: make([]bool, len(idx)),
	}
	switch pc.width {
	case width8:
		g.lab8 = gatherRows(pc.lab8, idx, m)
	case width16:
		g.lab16 = gatherRows(pc.lab16, idx, m)
	default:
		g.lab32 = gatherRows(pc.lab32, idx, m)
	}
	for i, obj := range idx {
		if pc.hasMiss[obj] {
			g.hasMiss[i] = true
			g.anyMiss = true
		}
	}
	return g
}

// gatherRows copies the label rows of the given objects, in order.
func gatherRows[W labelWord](src []W, idx []int, m int) []W {
	dst := make([]W, len(idx)*m)
	for i, obj := range idx {
		copy(dst[i*m:(i+1)*m], src[obj*m:(obj+1)*m])
	}
	return dst
}

// unpackInto materializes clustering i as []int labels into dst (len n).
func (pc *PackedClusterings) unpackInto(i int, dst partition.Labels) {
	switch pc.width {
	case width8:
		unpackColumn(pc.lab8, i, pc.m, dst)
	case width16:
		unpackColumn(pc.lab16, i, pc.m, dst)
	default:
		unpackColumn(pc.lab32, i, pc.m, dst)
	}
}

// unpackColumn is the width-specialized strided column read.
func unpackColumn[W labelWord](lab []W, i, m int, dst partition.Labels) {
	sentinel := missingWord[W]()
	for v := range dst {
		if l := lab[v*m+i]; l == sentinel {
			dst[v] = partition.Missing
		} else {
			dst[v] = int(l)
		}
	}
}

// unpackAll materializes every clustering — the []int views behind
// Problem.Clusterings, matrix materialization, and the contingency-table
// BestClustering. It allocates m·n ints, once per Problem, and only for
// problems NewProblem did not seed with the caller's slices.
func (pc *PackedClusterings) unpackAll() []partition.Labels {
	out := make([]partition.Labels, pc.m)
	for i := range out {
		c := make(partition.Labels, pc.n)
		pc.unpackInto(i, c)
		out[i] = c
	}
	return out
}

// kernelFrom aliases the packed block as a labelKernel for p — the only way
// a kernel is built. Zero-copy at the stored width (force 0); a forced wider
// width re-encodes (tests pin widths against each other through this path).
func (pc *PackedClusterings) kernelFrom(p *Problem, force int) *labelKernel {
	m := pc.m
	lk := &labelKernel{
		n: pc.n, m: m,
		width: pc.width,
		lab8:  pc.lab8, lab16: pc.lab16, lab32: pc.lab32,
		maxLab:      pc.maxLab,
		w:           make([]float64, m),
		missW:       make([]float64, m),
		hasMiss:     pc.hasMiss,
		anyMiss:     pc.anyMiss,
		uniform:     p.weights == nil,
		average:     p.missingMode == MissingAverage,
		totalWeight: p.totalWeight,
	}
	for i := 0; i < m; i++ {
		wi := p.weight(i)
		lk.w[i] = wi
		lk.missW[i] = (1 - p.missingP) * wi
	}
	if force != 0 && force != pc.width {
		if force < pc.width {
			panic("core: forced kernel width below the label bound")
		}
		lk.width = force
		switch {
		case pc.width == width8 && force == width16:
			lk.lab8, lk.lab16 = nil, widenWords[uint8, uint16](pc.lab8)
		case pc.width == width8 && force == width32:
			lk.lab8, lk.lab32 = nil, widenWords[uint8, int32](pc.lab8)
		default: // width16 -> width32
			lk.lab16, lk.lab32 = nil, widenWords[uint16, int32](pc.lab16)
		}
	}
	return lk
}

// NewProblemPacked builds an aggregation problem directly over a packed
// label block: the kernel path (Sample, matrix-free Aggregate, Dist,
// Disagreement, LowerBound) aliases the block's storage and never
// materializes []int labels. Paths that need per-clustering []int views
// (matrix materialization, the contingency-table BestClustering,
// Clusterings()) unpack on demand, once. Distances, and therefore results,
// are identical to NewProblem over the unpacked labels —
// TestPackedProblemEquivalence pins this bit for bit.
func NewProblemPacked(pc *PackedClusterings, opts ProblemOptions) (*Problem, error) {
	if pc == nil || pc.m == 0 {
		return nil, ErrNoClusterings
	}
	p, err := problemOptionsOf(pc.m, opts)
	if err != nil {
		return nil, err
	}
	p.n = pc.n
	p.packed = pc
	return p, nil
}
