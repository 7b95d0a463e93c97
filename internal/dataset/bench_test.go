package dataset

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// benchCSV builds an in-memory CSV in the shape the loader actually meets:
// mostly low-cardinality categorical columns with heavily repeated values
// (the regime chunk-local interning and ReuseRecord target), one numeric
// column, one class column, and a sprinkle of missing tokens.
func benchCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("a,b,c,d,e,f,num,class\n")
	for r := 0; r < rows; r++ {
		for c := 0; c < 6; c++ {
			if (r+c)%97 == 0 {
				sb.WriteString("?,")
				continue
			}
			fmt.Fprintf(&sb, "val%d,", (r*7+c*3)%(8+c))
		}
		fmt.Fprintf(&sb, "%d.5,c%d\n", r%13, r%3)
	}
	return sb.String()
}

// BenchmarkReadCSV pins the reader's speed and allocation profile (run with
// -benchmem) across chunk-parser counts, next to the test-side sequential
// oracle on the same input. The 20k-row table is one chunk, so workers>1
// mostly measures the chunking/merge overhead; docs/PERFORMANCE.md's Ingest
// table records the numbers.
func BenchmarkReadCSV(b *testing.B) {
	data := benchCSV(20_000)
	opts := CSVOptions{Name: "bench", HasHeader: true, ClassColumn: "class"}
	run := func(b *testing.B, read func(io.Reader, CSVOptions) (*Table, error), workers int) {
		o := opts
		o.Workers = workers
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, err := read(strings.NewReader(data), o)
			if err != nil {
				b.Fatal(err)
			}
			if t.N() != 20_000 {
				b.Fatalf("rows = %d", t.N())
			}
		}
	}
	b.Run("oracle", func(b *testing.B) { run(b, readCSVSequential, 0) })
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { run(b, ReadCSV, workers) })
	}
}

// TestReadCSVInternAllocs pins the interning reader's allocation shape: on
// a repeated-value table the per-parse allocation count must scale with
// distinct values and rows (slice growth), not with cells — the pre-intern
// reader allocated one string per cell (~2 allocs/cell end to end), so the
// pin at well under one alloc per cell fails on any regression to that.
func TestReadCSVInternAllocs(t *testing.T) {
	const rows = 2000
	data := benchCSV(rows)
	cells := rows * 8
	allocs := testing.AllocsPerRun(5, func() {
		tab, err := ReadCSV(strings.NewReader(data), CSVOptions{
			Name: "pin", HasHeader: true, ClassColumn: "class",
		})
		if err != nil {
			t.Fatal(err)
		}
		if tab.N() != rows {
			t.Fatalf("rows = %d", tab.N())
		}
	})
	if perCell := allocs / float64(cells); perCell > 0.5 {
		t.Errorf("ReadCSV allocates %.0f objects (%.2f per cell) on %d cells; interning should keep this well under one per cell", allocs, perCell, cells)
	}
}
