package align

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"branchalign/internal/bench"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
)

// TestQuickSparseMatrixMatchesDenseOnSynthCFGs: the sparse DTSP instance
// agrees entry-for-entry with the dense reference reduction on random
// CFGs (switch-heavy functions, zero-count edges, degenerate shapes).
func TestQuickSparseMatrixMatchesDenseOnSynthCFGs(t *testing.T) {
	m := machine.Alpha21164()
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%40) + 1
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		fp := prof.Funcs[0]
		pred := layout.Predictions(fn, fp)
		dense := BuildMatrix(fn, fp, pred, m)
		sp := BuildSparseMatrix(fn, fp, pred, m)
		if sp.Len() != dense.Len() {
			return false
		}
		for b := 0; b < blocks; b++ {
			for x := 0; x < blocks; x++ {
				if sp.At(b, x) != dense.At(b, x) {
					t.Logf("blocks=%d seed=%d: At(%d,%d) sparse %d dense %d",
						blocks, seedRaw, b, x, sp.At(b, x), dense.At(b, x))
					return false
				}
			}
		}
		// The instance is O(V+E): no row stores more exceptions than the
		// block has successors.
		for b := 0; b < blocks; b++ {
			cols, _ := sp.Row(b)
			if len(cols) > len(fn.Blocks[b].Term.Succs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSolverIdenticalOnSparseAndDenseInstances: the full multi-start
// solver, the Held-Karp bound and the assignment bound return identical
// results on the sparse and dense representations of the same function.
func TestQuickSolverIdenticalOnSparseAndDenseInstances(t *testing.T) {
	m := machine.Alpha21164()
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%34) + 2 // crosses the solver's dense cutover
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)+501))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		fp := prof.Funcs[0]
		pred := layout.Predictions(fn, fp)
		dense := BuildMatrix(fn, fp, pred, m)
		sp := BuildSparseMatrix(fn, fp, pred, m)

		opts := tsp.PaperSolveOptions(int64(seedRaw))
		rs := tsp.Solve(sp, opts)
		rd := tsp.Solve(dense, opts)
		if !reflect.DeepEqual(rs, rd) {
			t.Logf("blocks=%d seed=%d: sparse solve %v (%d) != dense %v (%d)",
				blocks, seedRaw, rs.Tour, rs.Cost, rd.Tour, rd.Cost)
			return false
		}
		hkOpts := tsp.HeldKarpOptions{Iterations: 50}
		if tsp.HeldKarpDirected(sp, hkOpts) != tsp.HeldKarpDirected(dense, hkOpts) {
			return false
		}
		return tsp.AssignmentBound(sp) == tsp.AssignmentBound(dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBoundChainOnSparsePath: with all bound consumers on the sparse
// path, AP <= HK-with-exact-floor and HK <= solver tour still hold per
// function (the vet invariant chain).
func TestQuickBoundChainOnSparsePath(t *testing.T) {
	m := machine.Alpha21164()
	aligner := NewTSP(7)
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%30) + 3
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)+77))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		fp := prof.Funcs[0]
		res := aligner.AlignFunc(context.Background(), 0, fn, fp, m)
		sp := BuildSparseMatrixForFunc(fn, fp, m)
		tour := tsp.CycleCost(sp, tsp.Tour(res.Order))
		hk := FuncHeldKarpBound(fn, fp, m, tsp.HeldKarpOptions{Iterations: 200})
		ap := tsp.AssignmentBound(sp)
		if hk > tour {
			t.Logf("blocks=%d seed=%d: HK %d > tour %d", blocks, seedRaw, hk, tour)
			return false
		}
		if ap > tour {
			t.Logf("blocks=%d seed=%d: AP %d > tour %d", blocks, seedRaw, ap, tour)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBoundsMatchSequential: the parallel per-function bound
// loops are bit-identical to a sequential evaluation.
func TestParallelBoundsMatchSequential(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	hkOpts := tsp.HeldKarpOptions{Iterations: 100}
	var seqHK, seqAP layout.Cost
	for fi, f := range mod.Funcs {
		seqHK += FuncHeldKarpBound(f, prof.Funcs[fi], m, hkOpts)
		if len(f.Blocks) > 1 {
			seqAP += tsp.AssignmentBound(BuildSparseMatrixForFunc(f, prof.Funcs[fi], m))
		}
	}
	if got := HeldKarpLowerBound(mod, prof, m, hkOpts); got != seqHK {
		t.Errorf("parallel HK bound %d != sequential %d", got, seqHK)
	}
	if got := AssignmentLowerBound(mod, prof, m); got != seqAP {
		t.Errorf("parallel AP bound %d != sequential %d", got, seqAP)
	}
}
