package main

import (
	"fmt"
	"math/rand"
	"sort"

	"clusteragg/internal/partition"
)

// cellMissing marks a missing cell in planted.cells.
const cellMissing = 0xff

// planted is a planted clustering-aggregation input: n objects over m
// categorical attributes, where object i belongs to planted group i%k and
// each attribute is a noisy copy of that grouping. It is the recipe of the
// repository's large-n ladder and of `gendata -dataset planted`, drawn here
// from the benchmark's own seed so the benchmark depends on no generator
// inside the program it measures.
type planted struct {
	n, m, k int
	cells   []uint8 // row-major n×m attribute values; cellMissing = missing
}

// genPlanted draws a planted input from seed. Each cell is missing with
// probability miss; otherwise, with probability noise, it is relabeled
// uniformly over k+2 values (so noise can also form spurious groups), and
// else it carries the row's planted group.
func genPlanted(seed int64, n, m, k int, noise, miss float64) *planted {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]uint8, n*m)
	for i := 0; i < n; i++ {
		row := cells[i*m : (i+1)*m]
		for a := range row {
			switch {
			case miss > 0 && rng.Float64() < miss:
				row[a] = cellMissing
			case rng.Float64() < noise:
				row[a] = uint8(rng.Intn(k + 2))
			default:
				row[a] = uint8(i % k)
			}
		}
	}
	return &planted{n: n, m: m, k: k, cells: cells}
}

// truth returns the planted grouping.
func (p *planted) truth() partition.Labels {
	t := make(partition.Labels, p.n)
	for i := range t {
		t[i] = i % p.k
	}
	return t
}

// columns returns the attributes as input clusterings, one per attribute,
// restricted to the objects in rows (all objects when rows is nil).
func (p *planted) columns(rows []int) []partition.Labels {
	n := p.n
	if rows != nil {
		n = len(rows)
	}
	cols := make([]partition.Labels, p.m)
	for a := range cols {
		col := make(partition.Labels, n)
		for j := range col {
			i := j
			if rows != nil {
				i = rows[j]
			}
			v := p.cells[i*p.m+a]
			if v == cellMissing {
				col[j] = partition.Missing
			} else {
				col[j] = int(v)
			}
		}
		cols[a] = col
	}
	return cols
}

// csv renders the input as CSV: a header of attr01..attrNN plus a trailing
// "class" column holding the planted group, values "v000".."vKKK" (never
// numeric, so every attribute is categorical), and "?" for missing cells.
func (p *planted) csv() []byte {
	values := make([]string, p.k+2)
	for v := range values {
		values[v] = fmt.Sprintf("v%03d,", v)
	}
	classes := make([]string, p.k)
	for c := range classes {
		classes[c] = fmt.Sprintf("c%03d\n", c)
	}
	buf := make([]byte, 0, (p.n+1)*(p.m+1)*5)
	for a := 0; a < p.m; a++ {
		buf = fmt.Appendf(buf, "attr%02d,", a+1)
	}
	buf = append(buf, "class\n"...)
	for i := 0; i < p.n; i++ {
		for _, v := range p.cells[i*p.m : (i+1)*p.m] {
			if v == cellMissing {
				buf = append(buf, "?,"...)
			} else {
				buf = append(buf, values[v]...)
			}
		}
		buf = append(buf, classes[i%p.k]...)
	}
	return buf
}

// subsample returns s distinct object indices in ascending order, drawn
// from seed; the cost-ratio estimate of the large workloads uses it.
func subsample(seed int64, n, s int) []int {
	rng := rand.New(rand.NewSource(seed))
	if s > n {
		s = n
	}
	seen := make(map[int]bool, s)
	idx := make([]int, 0, s)
	for len(idx) < s {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx
}
