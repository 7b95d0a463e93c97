package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the test-side reference reader: the original one-pass
// sequential CSV loader, kept verbatim as the oracle the chunked ReadCSV is
// pinned against (TestReadCSVEquiv, TestReadCSVErrorEquiv,
// TestReadCSVStreamEquiv, FuzzReadCSVEquiv). It interns through a bounded
// map with an exact overflow resolution at finalize — a different route to
// the same first-occurrence ids the chunk merge produces — so agreement
// between the two is evidence, not tautology.

// internCap bounds the per-column intern map during the streaming pass.
// Columns under the cap (every real categorical attribute) intern each
// distinct value exactly once; a column that blows past it — typically a
// near-unique ID column mistakenly treated as categorical — falls back to
// buffering the raw strings and interning them exactly at finalize, so the
// value→id mapping (and hence the induced clustering) is always identical
// to unbounded interning. The cap only protects the map itself from
// quadratic-ish rehash churn on pathological columns.
const internCap = 4096

// internDeferred marks a cell whose value arrived after the intern cap was
// hit; it is resolved to a real id at finalize.
const internDeferred = -2

// idClone is intern.id for strings that alias a transient read buffer: the
// key is cloned before it is retained, so interning never pins a csv line.
func (in *intern) idClone(s string) int {
	if id, ok := in.ids[s]; ok {
		return id
	}
	s = strings.Clone(s)
	id := len(in.names)
	in.ids[s] = id
	in.names = append(in.names, s)
	return id
}

// colScan is the streaming per-column state of readCSVSequential.
type colScan struct {
	name      string
	forcedNum bool
	forcedCat bool
	tryNum    bool // numeric inference still viable
	seenVal   bool // at least one non-missing value
	floats    []float64
	ids       []int
	in        *intern
	overflow  []string // post-cap values in occurrence order (duplicates included)
	badRow    int      // first non-numeric cell of a forced-numeric column
	badVal    string
}

// readCSVSequential loads a table from CSV data in one streaming pass:
// records reuse the reader's buffer, repeated string values intern to a
// single allocation, and no [][]string copy of the file is ever built. All
// rows must have the same number of fields; the csv reader enforces this and
// reports ragged input.
func readCSVSequential(r io.Reader, opts CSVOptions) (*Table, error) {
	count := &countingReader{r: r}
	cr := csv.NewReader(count)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true

	first, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty csv input")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}

	header := make([]string, len(first))
	if opts.HasHeader {
		for i, h := range first {
			header[i] = strings.Clone(h)
		}
	} else {
		for i := range header {
			header[i] = fmt.Sprintf("col%d", i)
		}
	}

	isMissing := missingMatcher(&opts)
	classIdx, err := classIndex(&opts, header)
	if err != nil {
		return nil, err
	}

	cols := make([]*colScan, len(header))
	for i, name := range header {
		c := &colScan{name: name, badRow: -1, in: newIntern()}
		if i == classIdx {
			cols[i] = c
			continue
		}
		c.forcedNum = nameForced(opts.NumericColumns, name)
		c.forcedCat = !c.forcedNum && nameForced(opts.CategoricalColumns, name)
		c.tryNum = !c.forcedNum && !c.forcedCat
		cols[i] = c
	}

	rows := 0
	scan := func(rec []string) {
		row := rows
		rows++
		for i, v := range rec {
			if opts.TrimSpace {
				v = strings.TrimSpace(v)
			}
			c := cols[i]
			if i == classIdx {
				if isMissing(v) {
					if c.badRow < 0 {
						c.badRow = row
					}
					c.ids = append(c.ids, MissingValue)
				} else {
					c.ids = append(c.ids, c.in.idClone(v))
				}
				continue
			}
			if isMissing(v) {
				if c.forcedNum || c.tryNum {
					c.floats = append(c.floats, math.NaN())
				}
				if !c.forcedNum {
					c.ids = append(c.ids, MissingValue)
				}
				continue
			}
			c.seenVal = true
			if c.forcedNum || c.tryNum {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					c.floats = append(c.floats, f)
				} else if c.forcedNum {
					if c.badRow < 0 {
						c.badRow = row
						c.badVal = strings.Clone(v)
					}
				} else {
					c.tryNum = false
					c.floats = nil
				}
			}
			if c.forcedNum {
				continue
			}
			if id, ok := c.in.ids[v]; ok {
				c.ids = append(c.ids, id)
			} else if len(c.in.names) < internCap {
				c.ids = append(c.ids, c.in.idClone(v))
			} else {
				c.ids = append(c.ids, internDeferred)
				c.overflow = append(c.overflow, strings.Clone(v))
			}
		}
	}

	if !opts.HasHeader {
		scan(first)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		scan(rec)
	}
	if opts.HasHeader && rows == 0 {
		return nil, fmt.Errorf("dataset: csv has a header but no data rows")
	}

	t := &Table{Name: opts.Name, BytesRead: count.n}
	for i, c := range cols {
		if i == classIdx {
			if c.badRow >= 0 {
				return nil, fmt.Errorf("dataset: missing class label at row %d", c.badRow)
			}
			t.Class = c.ids
			t.ClassNames = c.in.names
			continue
		}
		if c.forcedNum && c.badRow >= 0 {
			return nil, fmt.Errorf("dataset: column %q row %d: %q is not numeric", c.name, c.badRow, c.badVal)
		}
		if c.forcedNum || (c.tryNum && c.seenVal) {
			t.Cols = append(t.Cols, &Column{Name: c.name, Kind: Numeric, Floats: c.floats})
			continue
		}
		// Resolve post-cap cells: exact interning in occurrence order, so
		// ids match what unbounded interning would have produced (a split
		// mapping would split clusters downstream).
		if len(c.overflow) > 0 {
			oi := 0
			for j, id := range c.ids {
				if id == internDeferred {
					c.ids[j] = c.in.id(c.overflow[oi])
					oi++
				}
			}
		}
		if c.ids == nil {
			c.ids = []int{}
		}
		t.Cols = append(t.Cols, &Column{Name: c.name, Kind: Categorical, Values: c.ids, Names: c.in.names})
	}
	return t, nil
}
