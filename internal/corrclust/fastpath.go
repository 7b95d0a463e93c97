package corrclust

import (
	"math"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file holds the Matrix fast paths: when an algorithm's distance oracle
// is a *Matrix (possibly under obs.CountingInstance layers), its inner loops
// read contiguous rows via Row/RowTo instead of making a per-pair interface
// call with condensed-index arithmetic. Every fast path performs the adds in
// the same order on the same values as the generic loop it replaces, so
// results are bit-identical; distance reads are charged to the counting
// layers in bulk, so <method>.dist_probes totals stay equivalent to the
// per-call path (see docs/PERFORMANCE.md).

// RowDistancer is an Instance that can evaluate one object against many in
// a single call, without a per-pair interface probe: DistRowTo must fill
// dst[j] with exactly Dist(u, targets[j]) (zero on diagonal hits), bit for
// bit, and must be safe for concurrent use with distinct dst buffers. The
// generic consumers (Cost, MatrixFromInstance, LOCALSEARCH's row gathers)
// detect it the same way they detect a *Matrix and switch their inner
// loops to bulk row evaluation — the matrix-free analogue of
// the Row/RowTo fast paths, used by core's columnar label kernel to keep
// large-n pipelines O(n·m) in memory.
type RowDistancer interface {
	Instance
	DistRowTo(u int, targets []int, dst []float64)
}

// chargeFunc builds the bulk-charge closure over the counting layers an
// unwrap walked through.
func chargeFunc(counters []*obs.Counter) func(int64) {
	switch len(counters) {
	case 0:
		return func(int64) {}
	case 1:
		c := counters[0]
		return func(reads int64) { c.Add(reads) }
	default:
		cs := counters
		return func(reads int64) {
			for _, c := range cs {
				c.Add(reads)
			}
		}
	}
}

// matrixFast unwraps inst to its backing *Matrix, looking through
// obs.CountingInstance layers. It returns the matrix (nil when inst is not
// matrix-backed) and a charge function that adds a bulk number of distance
// reads to every counting layer passed through.
func matrixFast(inst Instance) (*Matrix, func(int64)) {
	var counters []*obs.Counter
	for {
		switch v := inst.(type) {
		case *Matrix:
			return v, chargeFunc(counters)
		case *obs.CountingInstance:
			counters = append(counters, v.ProbeCounter())
			next, ok := v.Unwrap().(Instance)
			if !ok {
				return nil, nil
			}
			inst = next
		default:
			return nil, nil
		}
	}
}

// rowFast unwraps inst to a RowDistancer, looking through
// obs.CountingInstance layers exactly like matrixFast. Consumers try
// matrixFast first (contiguous storage beats re-evaluation), then rowFast.
func rowFast(inst Instance) (RowDistancer, func(int64)) {
	var counters []*obs.Counter
	for {
		if rd, ok := inst.(RowDistancer); ok {
			return rd, chargeFunc(counters)
		}
		ci, ok := inst.(*obs.CountingInstance)
		if !ok {
			return nil, nil
		}
		counters = append(counters, ci.ProbeCounter())
		next, ok := ci.Unwrap().(Instance)
		if !ok {
			return nil, nil
		}
		inst = next
	}
}

// identity returns the target list [0, 1, ..., n); row consumers slice it
// to address contiguous object ranges without per-row allocations.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// costMatrix is Cost against contiguous row storage; the pair iteration
// order matches the generic loop, so the float accumulation is identical.
func costMatrix(m *Matrix, labels partition.Labels) float64 {
	var cost float64
	for u := 0; u < m.n; u++ {
		row := m.Row(u)
		lu := labels[u]
		rest := labels[u+1:]
		for j, x := range row {
			if lu == rest[j] {
				cost += x
			} else {
				cost += 1 - x
			}
		}
	}
	return cost
}

// lowerBoundMatrix is LowerBound against contiguous row storage.
func lowerBoundMatrix(m *Matrix) float64 {
	var lb float64
	for u := 0; u < m.n; u++ {
		for _, x := range m.Row(u) {
			lb += math.Min(x, 1-x)
		}
	}
	return lb
}

// costRows is Cost against a RowDistancer: each object's upper-triangular
// tail is evaluated in one DistRowTo call. The pair order and additions
// match the generic loop exactly, so the result is bit-identical to it.
func costRows(rd RowDistancer, labels partition.Labels) float64 {
	n := rd.N()
	ids := identity(n)
	buf := make([]float64, n)
	var cost float64
	for u := 0; u < n; u++ {
		rest := ids[u+1:]
		row := buf[:len(rest)]
		rd.DistRowTo(u, rest, row)
		lu := labels[u]
		tail := labels[u+1:]
		for j, x := range row {
			if lu == tail[j] {
				cost += x
			} else {
				cost += 1 - x
			}
		}
	}
	return cost
}

// pairs returns the number of unordered pairs of n objects.
func pairs(n int) int64 { return int64(n) * int64(n-1) / 2 }
