package tsp

import "sort"

// Neighbors holds, for every city, candidate lists of the cheapest
// outgoing and incoming directed edges. Local search only considers moves
// whose newly added edges come from these lists, which is the standard
// Johnson-McGeoch neighbor-list pruning.
type Neighbors struct {
	// Out[i] lists cities j in increasing order of cost(i->j).
	Out [][]int
	// In[j] lists cities i in increasing order of cost(i->j).
	In [][]int
}

// DefaultNeighborCount is the candidate-list width used when callers pass
// k <= 0 to BuildNeighbors.
const DefaultNeighborCount = 12

// BuildNeighbors computes the k cheapest outgoing and incoming neighbors
// of every city, skipping edges whose cost is at least forbid (pass the
// value of ForbidCost(s), or a negative number to keep every edge). Ties
// are broken by city index, so the result is a pure function of the
// instance's costs: every sparse representation of the same instance
// yields identical lists (a dense instance goes through Sparsify). The
// construction runs in O((V+E)·(k+log k)) instead of Θ(n² log n): each
// row contributes its exception columns plus the k smallest-index default
// columns (all default columns tie on cost, and index order is exactly
// how a cost-stable sort breaks that tie).
func BuildNeighbors(s *SparseMatrix, k int, forbid Cost) *Neighbors {
	n := s.Len()
	if k <= 0 {
		k = DefaultNeighborCount
	}
	if k > n-1 {
		k = n - 1
	}
	nb := &Neighbors{
		Out: make([][]int, n),
		In:  make([][]int, n),
	}
	// Out lists: per row, the exception columns plus the k smallest-index
	// default columns.
	isExc := make([]bool, n)
	cands := make([]neighborCand, 0, 2*k)
	for i := 0; i < n; i++ {
		cands = cands[:0]
		cols, vals := s.Row(i)
		for kk, c := range cols {
			isExc[c] = true
			if forbid >= 0 && vals[kk] >= forbid {
				continue
			}
			cands = append(cands, neighborCand{c, vals[kk]})
		}
		def := s.RowDefault(i)
		if forbid < 0 || def < forbid {
			taken := 0
			for j := 0; j < n && taken < k; j++ {
				if j == i || isExc[j] {
					continue
				}
				cands = append(cands, neighborCand{j, def})
				taken++
			}
		}
		for _, c := range cols {
			isExc[c] = false
		}
		nb.Out[i] = takeCheapest(cands, k)
	}
	// In lists: transpose the exceptions once, pre-rank rows by default
	// cost, then per column merge its exception rows with the k cheapest
	// default rows (skipping rows that have an exception in this column).
	colStart := make([]int, n+1)
	for _, c := range s.cols {
		colStart[c+1]++
	}
	for j := 0; j < n; j++ {
		colStart[j+1] += colStart[j]
	}
	colRows := make([]int, len(s.cols))
	colVals := make([]Cost, len(s.cols))
	fill := append([]int(nil), colStart[:n]...)
	for i := 0; i < n; i++ {
		cols, vals := s.Row(i)
		for kk, c := range cols {
			colRows[fill[c]] = i
			colVals[fill[c]] = vals[kk]
			fill[c]++
		}
	}
	// Rows in increasing (default, index) order — the preference order for
	// default-cost incoming edges.
	rowsByDef := make([]int, n)
	for i := range rowsByDef {
		rowsByDef[i] = i
	}
	sort.Slice(rowsByDef, func(a, b int) bool {
		if s.def[rowsByDef[a]] != s.def[rowsByDef[b]] {
			return s.def[rowsByDef[a]] < s.def[rowsByDef[b]]
		}
		return rowsByDef[a] < rowsByDef[b]
	})
	for j := 0; j < n; j++ {
		cands = cands[:0]
		rows := colRows[colStart[j]:colStart[j+1]]
		vals := colVals[colStart[j]:colStart[j+1]]
		for kk, i := range rows {
			isExc[i] = true
			if forbid >= 0 && vals[kk] >= forbid {
				continue
			}
			cands = append(cands, neighborCand{i, vals[kk]})
		}
		taken := 0
		for _, i := range rowsByDef {
			if taken >= k {
				break
			}
			if i == j || isExc[i] {
				continue
			}
			if forbid >= 0 && s.def[i] >= forbid {
				continue
			}
			cands = append(cands, neighborCand{i, s.def[i]})
			taken++
		}
		for _, i := range rows {
			isExc[i] = false
		}
		nb.In[j] = takeCheapest(cands, k)
	}
	return nb
}

// neighborCand is a candidate edge endpoint with its cost.
type neighborCand struct {
	city int
	cost Cost
}

// takeCheapest sorts candidates by (cost, city) and returns the first k
// cities — the same order a stable by-cost sort over index-ordered
// candidates produces.
func takeCheapest(cands []neighborCand, k int) []int {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].city < cands[b].city
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = cands[i].city
	}
	return out
}
