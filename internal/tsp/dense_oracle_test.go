package tsp

import (
	"math"
	"math/rand"
	"sort"
)

// Dense reference implementations. Production code runs on SparseMatrix
// only; these Θ(n²) versions read every entry through At and are the
// oracles the property tests compare the sparse kernels against.

// heldKarpSym is the Held-Karp lower bound of a symmetric instance by
// 1-tree Lagrangian relaxation with subgradient ascent (Held & Karp 1970,
// 1971), on the same schedule as HeldKarpBound: each iterate evaluates
// L(pi) = w(min 1-tree under reduced costs) - 2*sum(pi), and the best
// L(pi) seen is a valid lower bound on the optimal tour. Iterations,
// UpperBound and InitialAlpha are honoured; the rest of opt is ignored.
// It panics on an asymmetric matrix.
func heldKarpSym(m *Matrix, opt HeldKarpOptions) float64 {
	if !m.IsSymmetric() {
		panic("tsp: heldKarpSym: matrix is not symmetric")
	}
	n := m.Len()
	if n < 3 {
		return float64(CycleCost(m, IdentityTour(n)))
	}
	iters, period := hkSchedule(n, opt.Iterations)
	ub := opt.UpperBound
	if ub == 0 {
		ub = CycleCost(m, nearestNeighborDense(m, 0, nil))
	}
	alpha := opt.InitialAlpha
	if alpha <= 0 {
		alpha = 2
	}
	pi := make([]float64, n)
	deg := make([]int, n)
	best := math.Inf(-1)
	for it := 0; it < iters; it++ {
		var piSum float64
		for _, p := range pi {
			piSum += p
		}
		bound := oneTree(m, pi, deg) - 2*piSum
		if bound > best {
			best = bound
		}
		var norm float64
		for _, d := range deg {
			norm += float64((d - 2) * (d - 2))
		}
		if norm == 0 {
			break // the 1-tree is a tour: the bound is exact
		}
		step := alpha * (float64(ub) - bound) / norm
		if step <= 0 {
			break
		}
		for i := range pi {
			pi[i] += step * float64(deg[i]-2)
		}
		if (it+1)%period == 0 {
			alpha /= 2
		}
	}
	return best
}

// heldKarpDirectedDense bounds a directed instance by materializing its
// 2-city symmetric transformation (Sym.Matrix, with -LockCost on locked
// edges, so its optimum is the directed optimum shifted down by
// n*LockCost) and running heldKarpSym on it; the same shift turns the
// symmetric bound back into a bound on the directed optimum.
func heldKarpDirectedDense(c Costs, opt HeldKarpOptions) float64 {
	s := Symmetrize(c)
	shift := Cost(c.Len()) * s.LockCost()
	dirUB := opt.UpperBound
	if dirUB <= 0 {
		dirUB = CycleCost(c, nearestNeighborDense(c, 0, nil))
	}
	opt.UpperBound = dirUB - shift
	return heldKarpSym(s.Matrix(), opt) + float64(shift)
}

// oneTree computes the minimum-weight 1-tree under reduced costs
// c(i,j) + pi[i] + pi[j] with a Θ(n²) Prim: a minimum spanning tree over
// cities 1..n-1 plus the two cheapest edges incident to city 0. deg
// receives the degree of each city; the weight is in reduced costs.
func oneTree(m *Matrix, pi []float64, deg []int) float64 {
	n := m.Len()
	red := func(i, j int) float64 { return float64(m.At(i, j)) + pi[i] + pi[j] }
	inTree := make([]bool, n)
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range deg {
		deg[i] = 0
		dist[i] = math.MaxFloat64
	}
	total := 0.0
	cur := 1
	inTree[cur] = true
	for count := 1; count < n-1; count++ {
		nxt := -1
		for j := 2; j < n; j++ {
			if inTree[j] {
				continue
			}
			if d := red(cur, j); d < dist[j] {
				dist[j], parent[j] = d, cur
			}
			if nxt < 0 || dist[j] < dist[nxt] {
				nxt = j
			}
		}
		inTree[nxt] = true
		total += dist[nxt]
		deg[nxt]++
		deg[parent[nxt]]++
		cur = nxt
	}
	arg1, arg2 := -1, -1
	for j := 1; j < n; j++ {
		switch d := red(0, j); {
		case arg1 < 0 || d < red(0, arg1):
			arg1, arg2 = j, arg1
		case arg2 < 0 || d < red(0, arg2):
			arg2 = j
		}
	}
	deg[0] += 2
	deg[arg1]++
	deg[arg2]++
	return total + red(0, arg1) + red(0, arg2)
}

// nearestNeighborDense is NearestNeighbor scanning every column of the
// current row: a best-3 buffer filled in index order, ties kept by the
// earlier city.
func nearestNeighborDense(m Costs, start int, rng *rand.Rand) Tour {
	n := m.Len()
	visited := make([]bool, n)
	tour := Tour{start}
	visited[start] = true
	for cur := start; len(tour) < n; {
		var best [3]neighborCand
		nbest := 0
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			c := neighborCand{j, m.At(cur, j)}
			k := nbest
			if k == len(best) {
				if c.cost >= best[k-1].cost {
					continue
				}
				k--
			}
			for k > 0 && best[k-1].cost > c.cost {
				best[k] = best[k-1]
				k--
			}
			best[k] = c
			if nbest < len(best) {
				nbest++
			}
		}
		pick := 0
		if rng != nil && nbest > 1 {
			pick = rng.Intn(nbest)
		}
		cur = best[pick].city
		visited[cur] = true
		tour = append(tour, cur)
	}
	return tour
}

// neighborsByStableSort is BuildNeighbors by brute force: every row and
// column fully stable-sorted by cost over index-ordered candidates, the k
// cheapest kept.
func neighborsByStableSort(m Costs, k int, forbid Cost) *Neighbors {
	n := m.Len()
	if k <= 0 {
		k = DefaultNeighborCount
	}
	if k > n-1 {
		k = n - 1
	}
	nb := &Neighbors{Out: make([][]int, n), In: make([][]int, n)}
	for i := 0; i < n; i++ {
		for dir, lists := range [][][]int{nb.Out, nb.In} {
			at := func(j int) Cost { return m.At(i, j) }
			if dir == 1 {
				at = func(j int) Cost { return m.At(j, i) }
			}
			var idx []int
			for j := 0; j < n; j++ {
				if j != i && (forbid < 0 || at(j) < forbid) {
					idx = append(idx, j)
				}
			}
			sort.SliceStable(idx, func(a, b int) bool { return at(idx[a]) < at(idx[b]) })
			take := min(k, len(idx))
			lists[i] = append(make([]int, 0, take), idx[:take]...)
		}
	}
	return nb
}
