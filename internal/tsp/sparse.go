package tsp

import (
	"fmt"
	"slices"
	"sort"
)

// Costs is the cost-oracle view of a DTSP instance: everything the
// At-bound kernels in this package (3-opt, greedy edge, exact DP,
// patching, the assignment and Held-Karp bounds) need. *Matrix and
// *SparseMatrix both implement it, and those kernels accept either, so
// dense/sparse equivalence can be checked by running the same kernel on
// both representations. The kernels that exploit the default/exception
// split (BuildNeighbors, NearestNeighbor) take *SparseMatrix; Sparsify
// converts any Costs.
type Costs interface {
	// Len returns the number of cities.
	Len() int
	// At returns the cost of the directed edge i->j. The diagonal reads
	// as 0 and is ignored by all algorithms.
	At(i, j int) Cost
}

// SparseMatrix is a structurally sparse asymmetric cost matrix: each row i
// has a default cost def[i] that applies to every column, except for a
// short sorted list of per-row exception columns. The branch-alignment
// reduction (Section 2.2) produces exactly this shape — c(B, X) takes at
// most outdegree(B)+1 distinct values per row: one per CFG successor of B
// plus the row-constant "displaced" cost — so the whole instance is
// O(V+E) memory instead of Θ(n²).
//
// Rows are stored CSR-style: the exceptions of row i are
// cols[rowStart[i]:rowStart[i+1]] (strictly increasing column indices)
// with matching vals. The diagonal is never stored and At(i, i) returns
// 0, matching the untouched diagonal of a dense Matrix.
type SparseMatrix struct {
	n        int
	def      []Cost
	rowStart []int
	cols     []int
	vals     []Cost
}

// Len returns the number of cities.
func (s *SparseMatrix) Len() int { return s.n }

// At returns the cost of the directed edge i->j.
func (s *SparseMatrix) At(i, j int) Cost {
	if i == j {
		return 0
	}
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	if hi-lo <= 8 {
		for k := lo; k < hi; k++ {
			if s.cols[k] == j {
				return s.vals[k]
			}
			if s.cols[k] > j {
				break
			}
		}
		return s.def[i]
	}
	row := s.cols[lo:hi]
	k := sort.SearchInts(row, j)
	if k < len(row) && row[k] == j {
		return s.vals[lo+k]
	}
	return s.def[i]
}

// RowDefault returns the default cost of row i (the cost of i->j for
// every j that is not an exception column).
func (s *SparseMatrix) RowDefault(i int) Cost { return s.def[i] }

// Row returns the exception columns and values of row i. The returned
// slices alias internal storage and must not be modified.
func (s *SparseMatrix) Row(i int) (cols []int, vals []Cost) {
	return s.cols[s.rowStart[i]:s.rowStart[i+1]], s.vals[s.rowStart[i]:s.rowStart[i+1]]
}

// Exceptions returns the total number of stored exception entries.
func (s *SparseMatrix) Exceptions() int { return len(s.cols) }

// Forbid returns one plus the sum of all positive off-diagonal entries,
// the same quantity Matrix.Forbid computes, in O(V+E) time.
func (s *SparseMatrix) Forbid() Cost {
	var sum Cost
	for i := 0; i < s.n; i++ {
		lo, hi := s.rowStart[i], s.rowStart[i+1]
		if d := s.def[i]; d > 0 {
			sum += d * Cost(s.n-1-(hi-lo))
		}
		for k := lo; k < hi; k++ {
			if s.vals[k] > 0 {
				sum += s.vals[k]
			}
		}
	}
	return sum + 1
}

// Dense materializes the instance as a dense Matrix (for tests and for
// generic symmetric algorithms).
func (s *SparseMatrix) Dense() *Matrix {
	m := NewMatrix(s.n)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if i != j {
				m.Set(i, j, s.At(i, j))
			}
		}
	}
	return m
}

// SparseBuilder assembles a SparseMatrix row by row.
type SparseBuilder struct {
	m    *SparseMatrix
	rows int
}

// NewSparseBuilder returns a builder for an n-city sparse matrix. AddRow
// must be called exactly n times, in row order.
func NewSparseBuilder(n int) *SparseBuilder {
	if n < 1 {
		panic(fmt.Sprintf("tsp: NewSparseBuilder(%d): need at least one city", n))
	}
	return &SparseBuilder{m: &SparseMatrix{
		n:        n,
		def:      make([]Cost, 0, n),
		rowStart: append(make([]int, 0, n+1), 0),
	}}
}

// AddRow appends the next row: default cost def and exception columns
// cols (strictly increasing, excluding the diagonal) with values vals.
// The slices are copied.
func (b *SparseBuilder) AddRow(def Cost, cols []int, vals []Cost) {
	i := b.rows
	if i >= b.m.n {
		panic("tsp: SparseBuilder.AddRow: too many rows")
	}
	if len(cols) != len(vals) {
		panic("tsp: SparseBuilder.AddRow: cols/vals length mismatch")
	}
	for k, c := range cols {
		if c < 0 || c >= b.m.n || c == i {
			panic(fmt.Sprintf("tsp: SparseBuilder.AddRow: bad column %d in row %d", c, i))
		}
		if k > 0 && cols[k-1] >= c {
			panic(fmt.Sprintf("tsp: SparseBuilder.AddRow: columns not strictly increasing in row %d", i))
		}
	}
	b.m.def = append(b.m.def, def)
	b.m.cols = append(b.m.cols, cols...)
	b.m.vals = append(b.m.vals, vals...)
	b.m.rowStart = append(b.m.rowStart, len(b.m.cols))
	b.rows++
}

// Finish returns the assembled matrix. It panics if fewer than n rows
// were added.
func (b *SparseBuilder) Finish() *SparseMatrix {
	if b.rows != b.m.n {
		panic(fmt.Sprintf("tsp: SparseBuilder.Finish: %d of %d rows added", b.rows, b.m.n))
	}
	return b.m
}

// ForbidCost returns Forbid for any cost representation: one plus the sum
// of all positive off-diagonal entries. It dispatches to the O(V+E)
// sparse computation or the dense one when possible.
func ForbidCost(c Costs) Cost {
	switch m := c.(type) {
	case *Matrix:
		return m.Forbid()
	case *SparseMatrix:
		return m.Forbid()
	}
	n := c.Len()
	var sum Cost
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if v := c.At(i, j); v > 0 {
					sum += v
				}
			}
		}
	}
	return sum + 1
}

// Sparsify converts any cost representation to the canonical sparse form:
// in every row the default is the most frequent off-diagonal value
// (smallest value on ties) and every other entry is an exception. The
// canonical form is a pure function of the At values, so dense and sparse
// representations of the same instance sparsify identically — which is
// what makes algorithms that branch on the default/exception split (the
// implicit Held-Karp 1-tree) return bit-identical results for both.
func Sparsify(c Costs) *SparseMatrix {
	n := c.Len()
	b := NewSparseBuilder(n)
	if n == 1 {
		// A single-city row has no off-diagonal entries; canonicalize its
		// (unobservable) default to 0.
		b.AddRow(0, nil, nil)
		return b.Finish()
	}
	// Row scratch, reused across rows: AddRow copies its arguments, and
	// Sparsify sits on the per-function bound path where per-row makes
	// add up across a module's worth of small instances.
	ec := make([]int, 0, n-1)
	ev := make([]Cost, 0, n-1)
	var elect electScratch
	if s, ok := c.(*SparseMatrix); ok {
		// A matrix already in canonical form is returned as-is: the
		// canonical form is a pure function of the At values, so the
		// rebuild below would reproduce s row for row. A row is
		// canonical when no exception equals the row default and the
		// default wins the election — guaranteed without running it
		// when the default's multiplicity strictly exceeds the whole
		// exception count. SparseMatrix is immutable after Finish, so
		// aliasing the input is safe.
		canonical := true
	check:
		for i := 0; i < n; i++ {
			cols, vals := s.Row(i)
			def := s.def[i]
			for _, v := range vals {
				if v == def {
					canonical = false
					break check
				}
			}
			if defCount := n - 1 - len(cols); defCount <= len(cols) {
				if elect.mostFrequent(def, Cost(defCount), vals) != def {
					canonical = false
					break check
				}
			}
		}
		if canonical {
			return s
		}
		for i := 0; i < n; i++ {
			cols, vals := s.Row(i)
			def := elect.mostFrequent(s.def[i], Cost(n-1-len(cols)), vals)
			if def == s.def[i] {
				ec, ev = ec[:0], ev[:0]
				for k, c := range cols {
					if vals[k] != def {
						ec = append(ec, c)
						ev = append(ev, vals[k])
					}
				}
				b.AddRow(def, ec, ev)
				continue
			}
			// The elected default was an exception value, which can only
			// happen when exceptions dominate the row; rebuilding the row
			// by scanning all columns stays O(exceptions) amortized.
			ec, ev = ec[:0], ev[:0]
			k := 0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				v := s.def[i]
				if k < len(cols) && cols[k] == j {
					v = vals[k]
					k++
				}
				if v != def {
					ec = append(ec, j)
					ev = append(ev, v)
				}
			}
			b.AddRow(def, ec, ev)
		}
		return b.Finish()
	}
	vals := make([]Cost, 0, n-1)
	for i := 0; i < n; i++ {
		vals = vals[:0]
		for j := 0; j < n; j++ {
			if j != i {
				vals = append(vals, c.At(i, j))
			}
		}
		var def Cost
		if len(vals) > 0 {
			def = elect.mostFrequent(vals[0], 0, vals)
		}
		ec, ev = ec[:0], ev[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if v := c.At(i, j); v != def {
				ec = append(ec, j)
				ev = append(ev, v)
			}
		}
		b.AddRow(def, ec, ev)
	}
	return b.Finish()
}

// electScratch holds the sorted-copy buffer mostFrequent reuses across
// rows (the map-based counting this replaced allocated per row).
type electScratch struct {
	sorted []Cost
}

// mostFrequent picks the most frequent value among a default value with
// multiplicity defCount and the exception values; ties prefer the
// smallest value. The argmax comparison starts at (def, count -1) and
// candidates form a set, so the result does not depend on scan order —
// it is the same value the map-based counting used to elect.
func (e *electScratch) mostFrequent(def Cost, defCount Cost, vals []Cost) Cost {
	e.sorted = append(e.sorted[:0], vals...)
	slices.Sort(e.sorted)
	best, bestCount := def, Cost(-1)
	sawDef := false
	for i := 0; i < len(e.sorted); {
		v := e.sorted[i]
		j := i + 1
		for j < len(e.sorted) && e.sorted[j] == v {
			j++
		}
		cnt := Cost(j - i)
		if v == def && defCount > 0 {
			cnt += defCount
			sawDef = true
		}
		if cnt > bestCount || (cnt == bestCount && v < best) {
			best, bestCount = v, cnt
		}
		i = j
	}
	if !sawDef && defCount > 0 {
		if defCount > bestCount || (defCount == bestCount && def < best) {
			best, bestCount = def, defCount
		}
	}
	return best
}
