package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// BuildMatrix constructs the DTSP instance for one function, per Section
// 2.2 of the paper: a complete directed graph over the function's blocks
// where the cost of edge (B, X) is the penalty accrued at the end of B
// when X succeeds it in the layout (including the cost of any fixup
// branches the placement forces).
//
// The paper adds "a dummy block representing the end of the layout"; here
// the dummy is merged with the entry block into city 0 (the entry must be
// laid out first, so in any cycle through city 0 the edge into city 0 is
// the end-of-layout cost and the edge out of city 0 is the entry's
// successor cost). The merge keeps every matrix entry finite: no
// forbidden-edge constants are needed, which also tightens the Held-Karp
// bound. City k corresponds to block k; a tour rotated to start at city 0
// is exactly a block order.
func BuildMatrix(f *ir.Func, fp *interp.FuncProfile, pred []int, m machine.Model) *tsp.Matrix {
	n := len(f.Blocks)
	mat := tsp.NewMatrix(n)
	for b := 0; b < n; b++ {
		for x := 0; x < n; x++ {
			if b == x {
				continue
			}
			if x == 0 {
				// Closing the cycle into city 0 means "b is the last
				// block of the layout".
				mat.Set(b, x, layout.SuccessorCost(f, fp, pred, b, -1, m))
				continue
			}
			mat.Set(b, x, layout.SuccessorCost(f, fp, pred, b, x, m))
		}
	}
	return mat
}

// BuildSparseMatrix constructs the same DTSP instance as BuildMatrix in
// sparse form, in O(V+E) time and memory instead of Θ(V²). Each row of
// the instance takes at most outdegree(B)+1 distinct values — one per CFG
// successor plus a row-constant "displaced" cost that also covers the
// end-of-layout column 0 (layout.SuccessorCostRow) — so the whole matrix
// is a per-row default plus an exception list the size of the CFG edge
// set. tsp.SparseMatrix.At agrees with the dense matrix entry-for-entry;
// the sparse solver kernels exploit the structure directly.
func BuildSparseMatrix(f *ir.Func, fp *interp.FuncProfile, pred []int, m machine.Model) *tsp.SparseMatrix {
	n := len(f.Blocks)
	sb := tsp.NewSparseBuilder(n)
	var succs []int
	var costs []layout.Cost
	type exc struct {
		col int
		val tsp.Cost
	}
	excs := make([]exc, 0, 4)
	var cols []int
	var vals []tsp.Cost
	for b := 0; b < n; b++ {
		var def layout.Cost
		def, succs, costs = layout.SuccessorCostRow(f, fp, pred, b, m, succs[:0], costs[:0])
		excs = excs[:0]
		for k, x := range succs {
			// The diagonal is never read, and column 0 carries the
			// end-of-layout cost, which equals the row default.
			if x == b || x == 0 || costs[k] == def {
				continue
			}
			excs = append(excs, exc{x, costs[k]})
		}
		// Stable insertion sort by column; rows have at most
		// outdegree(b) entries, so this beats sort.SliceStable and
		// avoids its closure allocation.
		for i := 1; i < len(excs); i++ {
			for j := i; j > 0 && excs[j-1].col > excs[j].col; j-- {
				excs[j], excs[j-1] = excs[j-1], excs[j]
			}
		}
		cols, vals = cols[:0], vals[:0]
		for _, e := range excs {
			if len(cols) > 0 && cols[len(cols)-1] == e.col {
				continue // duplicate successor: first entry wins, as in SuccessorCost
			}
			cols = append(cols, e.col)
			vals = append(vals, e.val)
		}
		sb.AddRow(def, cols, vals) // AddRow copies, so the scratch is reusable
	}
	return sb.Finish()
}

// TSP is the paper's aligner: reduce each function to a DTSP and solve it
// with multi-start iterated 3-opt (exactly for small functions).
type TSP struct {
	// Opts configures the solver; the zero value selects the paper's
	// protocol (10 runs, 2N iterations) with seed 1. Function fi solves
	// with Opts.Seed+fi. Opts.Pool is where per-run parallelism
	// (Opts.Parallelism) draws its workers: sharing it with the
	// per-function fan-out keeps the two layers from oversubscribing
	// the machine.
	Opts tsp.SolveOptions
	// Obs, when non-nil, is the parent span per-function solver telemetry
	// is recorded under: one "align.func" span per function (matrix
	// build, per-row exception histogram, tsp.solve sub-spans with
	// convergence series). Spans may be created concurrently under the
	// shared parent. Nil records nothing.
	Obs *obs.Span
}

// NewTSP returns a TSP aligner with the paper's solver protocol.
func NewTSP(seed int64) *TSP {
	return &TSP{Opts: tsp.PaperSolveOptions(seed)}
}

// Name implements Aligner.
func (*TSP) Name() string { return "tsp" }

// AlignFunc implements Aligner. A cancelled ctx (or an exhausted
// Opts.Budget) truncates the solve at its next kick boundary and returns
// the best-so-far order.
func (t *TSP) AlignFunc(ctx context.Context, fi int, f *ir.Func, fp *interp.FuncProfile, m machine.Model) FuncResult {
	opts := t.Opts
	if opts.GreedyStarts == 0 && opts.NNStarts == 0 && opts.IdentityStarts == 0 {
		def := tsp.PaperSolveOptions(1)
		def.Context, def.Budget = opts.Context, opts.Budget
		def.Parallelism, def.Pool = opts.Parallelism, opts.Pool
		opts = def
	}
	if ctx != nil {
		opts.Context = ctx
	}
	n := len(f.Blocks)
	out := FuncResult{Cities: n}
	sp := t.Obs.Child("align.func", obs.String("func", f.Name), obs.Int("cities", int64(n)),
		obs.String("algorithm", "tsp"))
	if n == 1 {
		out.Order = []int{0}
		out.Exact = true
		out.Runs = 1
		out.RunsAtBest = 1
		sp.End(obs.Int("cost", 0), obs.Bool("exact", true))
		return out
	}
	pred := layout.Predictions(f, fp)
	bm := sp.Child("align.build_matrix")
	mat := BuildSparseMatrix(f, fp, pred, m)
	if bm != nil {
		bm.End(obs.Int("exceptions", int64(mat.Exceptions())))
		for b := 0; b < n; b++ {
			cols, _ := mat.Row(b)
			sp.Observe("align.row_exceptions", float64(len(cols)))
		}
	}
	opts.Seed += int64(fi)
	opts.Obs = sp
	res := tsp.Solve(mat, opts)
	res.Tour.RotateTo(0)
	out.Order = res.Tour
	out.Cost = res.Cost
	out.Exact = res.Exact
	out.Runs = res.Runs
	out.RunsAtBest = res.RunsAtBest
	out.Kicks = res.Kicks
	out.Truncated = res.Truncated
	sp.End(obs.Int("cost", res.Cost), obs.Bool("exact", res.Exact), obs.Bool("truncated", res.Truncated),
		obs.Int("runs", int64(res.Runs)), obs.Int("runs_at_best", int64(res.RunsAtBest)),
		obs.Int("iter_best", int64(res.IterationsToBest)),
		obs.Int("moves_tried", res.MovesTried), obs.Int("moves_accepted", res.MovesAccepted),
		obs.Int("or_moves_tried", res.OrMovesTried), obs.Int("or_moves_accepted", res.OrMovesAccepted))
	return out
}

// eachFuncBound evaluates bound(fi, f) for every function of the module
// on all CPUs and returns the sum over functions in index order. Each
// function's bound is independent and the summation order is fixed, so
// the result is identical to the sequential loop.
func eachFuncBound(mod *ir.Module, bound func(fi int, f *ir.Func) layout.Cost) layout.Cost {
	per := make([]layout.Cost, len(mod.Funcs))
	work.Shared().Each(len(mod.Funcs), func(fi int) {
		per[fi] = bound(fi, mod.Funcs[fi])
	})
	var total layout.Cost
	for _, c := range per {
		total += c
	}
	return total
}

// HeldKarpLowerBound computes the per-function Held-Karp lower bounds on
// control penalty and returns their sum (in cycles, rounded up to the
// next integer per function since penalties are integral). No layout can
// achieve a lower total intraprocedural control penalty on the training
// input. Functions are bounded in parallel (they are independent and the
// per-function bounds are summed in index order, so the result matches
// the sequential loop exactly).
func HeldKarpLowerBound(mod *ir.Module, prof *interp.Profile, m machine.Model, opts tsp.HeldKarpOptions) layout.Cost {
	return eachFuncBound(mod, func(fi int, f *ir.Func) layout.Cost {
		return FuncHeldKarpBound(f, prof.Funcs[fi], m, opts)
	})
}

// FuncBoundResult carries one function's Held-Karp bound with its
// anytime diagnostics.
type FuncBoundResult struct {
	// Bound is a valid lower bound on the function's control penalty.
	Bound layout.Cost
	// Exact is true when the function was small enough to bound by its
	// true optimum (exact DP) or trivially (single block).
	Exact bool
	// Truncated is true when the subgradient ascent was cut short by its
	// context or budget; the bound is still valid, just weaker.
	Truncated bool
	// Iterations is the number of subgradient iterates evaluated (0 for
	// exact bounds).
	Iterations int
	// Converged is true when the bound is provably exact for the relaxed
	// instance: the 1-tree became a tour, or the function was small
	// enough to bound by its true optimum.
	Converged bool
	// Stalled is true when the ascent's stall window (if enabled) ended
	// the computation before its iteration schedule. The bound is still
	// valid, just no tighter than where the ascent plateaued.
	Stalled bool
}

// FuncHeldKarpBound computes the Held-Karp bound for a single function's
// DTSP instance. Functions small enough for exact solving are bounded by
// their true optimum. When opts.Obs is set, the bound computation is
// recorded as an "align.hk" span (with the subgradient trajectory
// nested under it).
func FuncHeldKarpBound(f *ir.Func, fp *interp.FuncProfile, m machine.Model, opts tsp.HeldKarpOptions) layout.Cost {
	return FuncHeldKarpBoundResult(f, fp, m, opts).Bound
}

// FuncHeldKarpBoundResult is FuncHeldKarpBound with the full anytime
// result (truncation flag, iterate count), used by budgeted callers.
func FuncHeldKarpBoundResult(f *ir.Func, fp *interp.FuncProfile, m machine.Model, opts tsp.HeldKarpOptions) FuncBoundResult {
	n := len(f.Blocks)
	sp := opts.Obs.Child("align.hk", obs.String("func", f.Name), obs.Int("cities", int64(n)))
	opts.Obs = sp
	if n == 1 {
		sp.End(obs.Int("bound", 0), obs.Bool("exact", true), obs.Bool("converged", true))
		return FuncBoundResult{Exact: true, Converged: true}
	}
	pred := layout.Predictions(f, fp)
	mat := BuildSparseMatrix(f, fp, pred, m)
	if n <= 12 {
		_, opt := tsp.SolveExact(mat)
		sp.End(obs.Int("bound", opt), obs.Bool("exact", true), obs.Bool("converged", true))
		return FuncBoundResult{Bound: opt, Exact: true, Converged: true}
	}
	hk := tsp.HeldKarpBound(mat, opts)
	b := hk.Bound
	if b < 0 {
		b = 0 // costs are non-negative; clamp numerical noise
	}
	// The bound is valid, and penalties are integral, so rounding up
	// keeps it valid while tightening it.
	c := layout.Cost(b)
	if float64(c) < b {
		c++
	}
	sp.End(obs.Int("bound", int64(c)), obs.Bool("truncated", hk.Truncated),
		obs.Int("iterations", int64(hk.Iterations)), obs.Bool("converged", hk.Converged),
		obs.Bool("stalled", hk.Stalled))
	return FuncBoundResult{Bound: c, Truncated: hk.Truncated, Iterations: hk.Iterations,
		Converged: hk.Converged, Stalled: hk.Stalled}
}

// BuildMatrixForFunc is BuildMatrix with predictions derived internally,
// a convenience for per-instance analyses (the appendix experiment).
func BuildMatrixForFunc(f *ir.Func, fp *interp.FuncProfile, m machine.Model) *tsp.Matrix {
	return BuildMatrix(f, fp, layout.Predictions(f, fp), m)
}

// BuildSparseMatrixForFunc is BuildSparseMatrix with predictions derived
// internally.
func BuildSparseMatrixForFunc(f *ir.Func, fp *interp.FuncProfile, m machine.Model) *tsp.SparseMatrix {
	return BuildSparseMatrix(f, fp, layout.Predictions(f, fp), m)
}

// AssignmentLowerBound computes the per-function assignment-problem
// bounds and their sum. It is weaker than Held-Karp on most
// branch-alignment instances (the paper's appendix measures exactly how
// much weaker). Functions are bounded in parallel, like
// HeldKarpLowerBound.
func AssignmentLowerBound(mod *ir.Module, prof *interp.Profile, m machine.Model) layout.Cost {
	return eachFuncBound(mod, func(fi int, f *ir.Func) layout.Cost {
		if len(f.Blocks) == 1 {
			return 0
		}
		mat := BuildSparseMatrixForFunc(f, prof.Funcs[fi], m)
		return tsp.AssignmentBound(mat)
	})
}
