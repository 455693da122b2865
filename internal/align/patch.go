package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
)

// APPatch aligns by solving each function's DTSP with the
// assignment-patching heuristic (Karp-style) instead of iterated 3-Opt.
// It exists as the ablation comparator motivated by the paper's appendix:
// patching algorithms are "designed to exploit small gaps between the AP
// bound and the optimal tour length", a property most branch-alignment
// instances lack, so APPatch should trail the TSP aligner on exactly
// those functions where the AP bound is loose.
type APPatch struct{}

// Name implements Aligner.
func (APPatch) Name() string { return "ap-patch" }

// AlignFunc implements Aligner.
func (APPatch) AlignFunc(_ context.Context, _ int, f *ir.Func, fp *interp.FuncProfile, m machine.Model) FuncResult {
	if len(f.Blocks) == 1 {
		return priced(f, fp, m, []int{0})
	}
	tour, _ := tsp.SolvePatching(BuildMatrixForFunc(f, fp, m))
	tour.RotateTo(0)
	return priced(f, fp, m, tour)
}
