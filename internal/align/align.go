// Package align implements intraprocedural branch-alignment algorithms:
// the original (compiler) order, the Pettis-Hansen-style greedy aligner,
// the Calder-Grunwald cost-driven greedy variant, and the paper's
// TSP-based near-optimal aligner, together with the Held-Karp and
// assignment-problem lower bounds on achievable control penalty.
//
// Every aligner works one function at a time, as the paper's reduction
// does: it implements AlignFunc, and Layout is the one place a module is
// assembled from per-function solves.
package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/work"
)

// Aligner lays out one function from its training profile under a
// machine model. Implementations must be safe for concurrent AlignFunc
// calls: Layout and internal/engine fan functions out on a worker pool.
type Aligner interface {
	// Name identifies the aligner in reports.
	Name() string
	// AlignFunc lays out function fi of a module (f, trained on fp).
	// The index seeds randomized aligners: function fi solves with
	// Seed+fi, so a function's result never depends on its neighbors or
	// on the fan-out schedule.
	//
	// ctx carries request-scoped cancellation: an anytime aligner (tsp,
	// exttsp) stops at its next kick or merge boundary and returns its
	// best-so-far order, flagged Truncated — always a valid order,
	// possibly a worse one than an uncancelled run would produce. The
	// greedy aligners are effectively instantaneous and ignore ctx. A
	// nil ctx is treated as context.Background().
	AlignFunc(ctx context.Context, fi int, f *ir.Func, fp *interp.FuncProfile, m machine.Model) FuncResult
}

// FuncResult is one function's alignment outcome.
type FuncResult struct {
	// Cities is the function's block count (the DTSP instance size).
	Cities int
	// Order is the block order, a permutation with the entry block first.
	Order []int
	// Cost is the control penalty of Order on the training profile.
	Cost layout.Cost
	// Exact marks an order proven optimal (tsp's exact DP or a single
	// block).
	Exact bool
	// Truncated marks a solve cut short by its context or budget; Kicks
	// totals the kick rounds a tsp solve performed.
	Truncated bool
	Kicks     int64
	// Runs and RunsAtBest are tsp's local-search run count and how many
	// runs tied the best cost (the appendix's convergence readout).
	Runs, RunsAtBest int
	// Score is the ExtTSP objective of Order (exttsp only).
	Score float64
}

// Layout aligns every function of mod with a and assembles the module
// layout. Functions run on pool (nil runs them sequentially); each
// function's result depends only on its own index and inputs, so every
// pool yields the same layout. The returned layout satisfies
// layout.Validate.
func Layout(ctx context.Context, a Aligner, mod *ir.Module, prof *interp.Profile, m machine.Model, pool *work.Pool) *layout.Layout {
	l := &layout.Layout{Funcs: make([]*layout.FuncLayout, len(mod.Funcs))}
	pool.Each(len(mod.Funcs), func(fi int) {
		f, fp := mod.Funcs[fi], prof.Funcs[fi]
		l.Funcs[fi] = layout.Finalize(f, fp, a.AlignFunc(ctx, fi, f, fp, m).Order, m)
	})
	return l
}

// priced is the FuncResult of a heuristic order: its control penalty,
// no solver diagnostics.
func priced(f *ir.Func, fp *interp.FuncProfile, m machine.Model, order []int) FuncResult {
	fl := layout.Finalize(f, fp, order, m)
	return FuncResult{Cities: len(f.Blocks), Order: order, Cost: layout.Penalty(f, fl, fp, m)}
}

// Original is the identity aligner: blocks stay in compiler order. It is
// the baseline all results are normalized against.
type Original struct{}

// Name implements Aligner.
func (Original) Name() string { return "original" }

// AlignFunc implements Aligner.
func (Original) AlignFunc(_ context.Context, _ int, f *ir.Func, fp *interp.FuncProfile, m machine.Model) FuncResult {
	order := make([]int, len(f.Blocks))
	for i := range order {
		order[i] = i
	}
	return priced(f, fp, m, order)
}
