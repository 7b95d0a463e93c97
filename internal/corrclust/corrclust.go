// Package corrclust implements correlation clustering on complete graphs
// with edge distances in [0,1], as defined in Section 3 of "Clustering
// Aggregation" (Gionis, Mannila, Tsaparas; ICDE 2005).
//
// An Instance supplies the pairwise distance X_uv ∈ [0,1] for every
// unordered pair of objects. The cost of a partition C is
//
//	d(C) = Σ_{C(u)=C(v)} X_uv + Σ_{C(u)≠C(v)} (1 − X_uv)
//
// summed over unordered pairs u < v. The package provides the BALLS,
// AGGLOMERATIVE, FURTHEST, and LOCALSEARCH algorithms from Section 4 of the
// paper, an exact brute-force solver for validation, the trivial lower
// bound Σ min(X_uv, 1−X_uv), and a dense condensed-matrix Instance.
package corrclust

import (
	"fmt"
	"math"

	"clusteragg/internal/partition"
)

// Instance is a correlation-clustering input: a complete graph on N objects
// with distances in [0,1]. Implementations must be symmetric
// (Dist(u,v) == Dist(v,u)) and zero on the diagonal. Dist must be safe for
// concurrent use.
type Instance interface {
	// N returns the number of objects.
	N() int
	// Dist returns the distance X_uv in [0,1].
	Dist(u, v int) float64
}

// Cost returns the correlation-clustering objective of labels on inst,
// summed over unordered pairs: co-clustered pairs pay X_uv and separated
// pairs pay 1-X_uv.
func Cost(inst Instance, labels partition.Labels) float64 {
	n := inst.N()
	if m, charge := matrixFast(inst); m != nil {
		charge(pairs(n))
		return costMatrix(m, labels)
	}
	if rd, charge := rowFast(inst); rd != nil {
		charge(pairs(n))
		return costRows(rd, labels)
	}
	var cost float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			x := inst.Dist(u, v)
			if labels[u] == labels[v] {
				cost += x
			} else {
				cost += 1 - x
			}
		}
	}
	return cost
}

// LowerBound returns Σ_{u<v} min(X_uv, 1−X_uv), a lower bound on the cost of
// every partition: each pair pays at least the cheaper of its two options.
func LowerBound(inst Instance) float64 {
	n := inst.N()
	if m, charge := matrixFast(inst); m != nil {
		charge(pairs(n))
		return lowerBoundMatrix(m)
	}
	var lb float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			x := inst.Dist(u, v)
			lb += math.Min(x, 1-x)
		}
	}
	return lb
}

// Matrix is a dense Instance backed by condensed upper-triangular storage
// (n(n-1)/2 float64 values). The zero value is unusable; construct with
// NewMatrix.
type Matrix struct {
	n    int
	data []float64
}

// NewMatrix returns an n-object Matrix with all distances zero.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("corrclust: negative matrix size")
	}
	return &Matrix{n: n, data: make([]float64, n*(n-1)/2)}
}

// MatrixFromInstance materializes any Instance into a Matrix. Useful when an
// on-the-fly instance will be probed many times. A source that is itself
// matrix-backed (possibly under counting layers) is copied condensed-storage
// to condensed-storage in one pass instead of n(n−1)/2 interface calls, with
// the reads bulk-charged to any counting layers.
func MatrixFromInstance(inst Instance) *Matrix {
	n := inst.N()
	m := NewMatrix(n)
	if src, charge := matrixFast(inst); src != nil {
		copy(m.data, src.data)
		charge(pairs(n))
		return m
	}
	if rd, charge := rowFast(inst); rd != nil {
		ids := identity(n)
		for u := 0; u < n; u++ {
			rd.DistRowTo(u, ids[u+1:], m.Row(u))
		}
		charge(pairs(n))
		return m
	}
	for u := 0; u < n; u++ {
		row := m.Row(u)
		for j := range row {
			row[j] = inst.Dist(u, u+1+j)
		}
	}
	return m
}

// N returns the number of objects.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) index(u, v int) int {
	if u > v {
		u, v = v, u
	}
	// Row u occupies n-1-u entries starting at u*n - u*(u+1)/2 - u... use the
	// standard condensed index: offset(u) = u*(2n-u-1)/2, column v-u-1.
	return u*(2*m.n-u-1)/2 + (v - u - 1)
}

// Dist returns the stored distance; Dist(u,u) is 0.
func (m *Matrix) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	return m.data[m.index(u, v)]
}

// Row returns the contiguous storage of row u's upper-triangular tail:
// entry j is Dist(u, u+1+j), for j in [0, n-1-u). The slice aliases the
// matrix, so writes through it update the matrix; bulk kernels (the
// cluster-block materializer, the algorithms' matrix fast paths) use it to
// read and write distances without per-pair index arithmetic or interface
// calls.
func (m *Matrix) Row(u int) []float64 {
	base := u * (2*m.n - u - 1) / 2
	return m.data[base : base+m.n-u-1]
}

// RowTo gathers the full row u into dst: dst[v] = Dist(u, v) for every v,
// including the zero diagonal entry. dst must have length at least n. The
// v > u tail is a single copy from contiguous storage; the v < u head walks
// the condensed column with a running stride. It returns dst[:n].
func (m *Matrix) RowTo(u int, dst []float64) []float64 {
	// index(v, u) for v < u starts at u-1 and advances by n-2-v.
	idx := u - 1
	for v := 0; v < u; v++ {
		dst[v] = m.data[idx]
		idx += m.n - 2 - v
	}
	dst[u] = 0
	copy(dst[u+1:m.n], m.Row(u))
	return dst[:m.n]
}

// Set stores a distance for the unordered pair {u,v}. Setting an
// out-of-range index, a diagonal entry, or a value outside [0,1] is an
// error. Range is validated first, so an out-of-range equal pair (e.g.
// Set(7,7) on a 3-object matrix) reports the range error, not the diagonal
// one.
func (m *Matrix) Set(u, v int, x float64) error {
	if u < 0 || v < 0 || u >= m.n || v >= m.n {
		return fmt.Errorf("corrclust: pair (%d,%d) out of range [0,%d)", u, v, m.n)
	}
	if u == v {
		return fmt.Errorf("corrclust: cannot set diagonal entry (%d,%d)", u, v)
	}
	if x < 0 || x > 1 || math.IsNaN(x) {
		return fmt.Errorf("corrclust: distance %v outside [0,1]", x)
	}
	m.data[m.index(u, v)] = x
	return nil
}

// Validate checks that all distances are within [0,1] and, when checkTriangle
// is set, that the triangle inequality X_uw <= X_uv + X_vw holds for every
// triple (an O(n^3) scan; intended for tests).
func (m *Matrix) Validate(checkTriangle bool) error {
	for _, x := range m.data {
		if x < 0 || x > 1 || math.IsNaN(x) {
			return fmt.Errorf("corrclust: distance %v outside [0,1]", x)
		}
	}
	if !checkTriangle {
		return nil
	}
	// Every triple u < v < w reads X_uv, X_uw from row u and X_vw from row
	// v, so the contiguous rows are hoisted out of the inner loop instead of
	// paying three condensed-index Dist calls per triple.
	const eps = 1e-9
	for u := 0; u < m.n; u++ {
		rowU := m.Row(u)
		for v := u + 1; v < m.n; v++ {
			duv := rowU[v-u-1]
			rowV := m.Row(v)
			for j, dvw := range rowV {
				duw := rowU[v-u+j] // w = v+1+j, so rowU index w-u-1
				if duv > duw+dvw+eps || duw > duv+dvw+eps || dvw > duv+duw+eps {
					return fmt.Errorf("corrclust: triangle inequality violated on (%d,%d,%d)", u, v, v+1+j)
				}
			}
		}
	}
	return nil
}

// Sub returns the sub-instance of inst induced by the given object indices:
// object i of the result corresponds to idx[i] of inst.
func Sub(inst Instance, idx []int) Instance {
	return &subInstance{parent: inst, idx: idx}
}

type subInstance struct {
	parent Instance
	idx    []int
}

func (s *subInstance) N() int { return len(s.idx) }

func (s *subInstance) Dist(u, v int) float64 {
	return s.parent.Dist(s.idx[u], s.idx[v])
}
