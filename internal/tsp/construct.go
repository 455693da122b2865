package tsp

import (
	"math/rand"
	"sort"
)

// NearestNeighbor builds a tour by starting at city start and repeatedly
// moving to the cheapest unvisited city. With rng == nil the choice is
// deterministic; otherwise each step picks uniformly among the k cheapest
// unvisited cities (k = 3, per the "randomized Nearest Neighbor starts" of
// the paper's solver protocol). Ties are broken by city index. From the
// current city, the candidate successors are the unvisited exception
// columns plus the first three unvisited non-exception columns (all
// non-exception columns cost the row default, so the three with the
// smallest indices are exactly the ones a stable best-3 scan of the full
// row would keep). O(V+E + n·k) over the whole tour instead of Θ(n²).
func NearestNeighbor(s *SparseMatrix, start int, rng *rand.Rand) Tour {
	n := s.Len()
	// Doubly linked list over unvisited cities in index order.
	next := make([]int, n+1) // next[n] is the head sentinel
	prev := make([]int, n+1)
	for i := 0; i <= n; i++ {
		next[i] = (i + 1) % (n + 1)
		prev[i] = (i + n) % (n + 1)
	}
	visited := make([]bool, n)
	visit := func(c int) {
		visited[c] = true
		next[prev[c]] = next[c]
		prev[next[c]] = prev[c]
	}
	isExc := make([]bool, n)
	tour := make(Tour, 0, n)
	cur := start
	visit(cur)
	tour = append(tour, cur)
	type cand struct {
		city int
		cost Cost
	}
	// Insertion into a best-3 buffer ordered by (cost, city). Candidate
	// cities are distinct, so (cost, city) is a strict total order and
	// the buffer holds exactly the 3 smallest candidates in sorted order
	// — the same prefix the sort.Slice this replaced produced, without
	// its per-step closure and interface allocations.
	var best [3]cand
	nbest := 0
	add := func(c cand) {
		k := nbest
		if k > len(best)-1 {
			k = len(best) - 1
			if c.cost > best[k].cost || (c.cost == best[k].cost && c.city > best[k].city) {
				return
			}
		}
		for k > 0 && (best[k-1].cost > c.cost || (best[k-1].cost == c.cost && best[k-1].city > c.city)) {
			best[k] = best[k-1]
			k--
		}
		best[k] = c
		if nbest < len(best) {
			nbest++
		}
	}
	for len(tour) < n {
		nbest = 0
		cols, vals := s.Row(cur)
		for k, c := range cols {
			isExc[c] = true
			if !visited[c] {
				add(cand{c, vals[k]})
			}
		}
		def := s.RowDefault(cur)
		taken := 0
		for c := next[n]; c != n && taken < 3; c = next[c] {
			if isExc[c] {
				continue
			}
			add(cand{c, def})
			taken++
		}
		for _, c := range cols {
			isExc[c] = false
		}
		pick := 0
		if rng != nil && nbest > 1 {
			pick = rng.Intn(nbest)
		}
		cur = best[pick].city
		visit(cur)
		tour = append(tour, cur)
	}
	return tour
}

// GreedyEdge builds a tour by sorting all directed edges by cost and
// accepting each edge whose head still lacks an outgoing edge, whose tail
// still lacks an incoming edge, and which does not close a premature
// subcycle. Remaining gaps are stitched with the forced edges. With a
// non-nil rng the edge order is perturbed (each edge's sort key is
// multiplied by a factor drawn from [1, 1.25)), giving the "randomized
// Greedy starts" of the paper's solver protocol.
//
// The construction inherently ranks all n(n-1) directed edges (the
// randomized variant draws an independent key per edge), so it stays
// Θ(n² log n) for every representation; Solve therefore reserves greedy
// starts for instances where the edge sort is affordable.
func GreedyEdge(m Costs, rng *rand.Rand) Tour {
	n := m.Len()
	if n == 1 {
		return Tour{0}
	}
	type edge struct {
		from, to int
		key      float64
	}
	edges := make([]edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			key := float64(m.At(i, j))
			if rng != nil {
				key *= 1 + rng.Float64()*0.25
			}
			edges = append(edges, edge{i, j, key})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].key != edges[b].key {
			return edges[a].key < edges[b].key
		}
		if edges[a].from != edges[b].from {
			return edges[a].from < edges[b].from
		}
		return edges[a].to < edges[b].to
	})

	next := make([]int, n) // chosen successor, -1 if none
	prev := make([]int, n) // chosen predecessor, -1 if none
	for i := range next {
		next[i] = -1
		prev[i] = -1
	}
	// chainEnd[x] is, for the head x of a chain, the tail of that chain
	// (and vice versa); used to reject subcycles in O(1) amortized.
	chainEnd := make([]int, n)
	for i := range chainEnd {
		chainEnd[i] = i
	}
	accepted := 0
	for _, e := range edges {
		if accepted == n-1 {
			break
		}
		if next[e.from] != -1 || prev[e.to] != -1 {
			continue
		}
		// Reject an edge that would close a cycle before all cities join.
		if chainEnd[e.from] == e.to && accepted < n-1 {
			continue
		}
		next[e.from] = e.to
		prev[e.to] = e.from
		// e.from was the tail of a chain whose head is chainEnd[e.from];
		// e.to was the head of a chain whose tail is chainEnd[e.to]. The
		// merged chain runs newHead..e.from->e.to..newTail.
		newHead := chainEnd[e.from]
		newTail := chainEnd[e.to]
		chainEnd[newHead] = newTail
		chainEnd[newTail] = newHead
		accepted++
	}
	// Stitch any remaining chain tails to chain heads. With the subcycle
	// check above there is exactly one chain left when accepted == n-1;
	// otherwise several chains remain and we connect them in index order.
	tour := make(Tour, 0, n)
	used := make([]bool, n)
	for i := 0; i < n; i++ {
		if prev[i] != -1 || used[i] {
			continue
		}
		for c := i; c != -1 && !used[c]; c = next[c] {
			used[c] = true
			tour = append(tour, c)
		}
	}
	// Cities that ended up in a (degenerate) cycle of chosen edges would be
	// skipped above; append them defensively. This cannot happen with the
	// subcycle check, but the guard keeps the function total.
	for i := 0; i < n; i++ {
		if !used[i] {
			for c := i; !used[c]; c = next[c] {
				used[c] = true
				tour = append(tour, c)
			}
		}
	}
	return tour
}

// IdentityTour returns the tour visiting cities in index order, i.e. the
// "original ordering given by the compiler" start of the paper's protocol.
func IdentityTour(n int) Tour {
	t := make(Tour, n)
	for i := range t {
		t[i] = i
	}
	return t
}
