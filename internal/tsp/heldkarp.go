package tsp

import (
	"context"
	"math"

	"branchalign/internal/obs"
)

// HeldKarpOptions configures the Lagrangian subgradient ascent used to
// compute the Held-Karp lower bound.
type HeldKarpOptions struct {
	// Iterations of subgradient ascent; <= 0 selects a size-based default.
	Iterations int
	// UpperBound is a known tour cost used to scale step sizes. If zero, a
	// quick nearest-neighbor tour is computed internally. Negative values
	// are legitimate bounds for shifted instances.
	UpperBound Cost
	// InitialAlpha is the initial step-size multiplier (default 2).
	InitialAlpha float64
	// Obs, when non-nil, is the parent span the subgradient ascent
	// records its telemetry under: a "tsp.heldkarp" child span carrying
	// the bound trajectory ("hk_bound", one point per improving iterate)
	// and step-size series ("hk_step"). Nil records nothing.
	Obs *obs.Span
	// Context, when non-nil, cancels the ascent at the next subgradient
	// iterate boundary. The best bound found so far is returned with
	// BoundResult.Truncated set — every iterate's bound is a valid lower
	// bound, so truncation never invalidates the result. At least one
	// iterate always runs, so a cancelled call still returns a real
	// (if weak) bound.
	Context context.Context
	// Budget bounds the ascent (wall-clock deadline, max subgradient
	// iterates). The zero Budget is unlimited.
	Budget Budget
	// Warm, when non-nil, warm-starts the ascent from the dual state of
	// a previous call on the same instance and receives the updated
	// state when the call returns. A state whose vector length does not
	// match the instance's node count is ignored (cold start) and then
	// overwritten, so a stale state is never worse than no state. Every
	// pi vector yields a valid lower bound, so warm-starting can only
	// change how quickly the ascent reaches a tight bound — never the
	// validity of what it returns.
	Warm *HKWarmState
	// StallWindow, when positive, ends the ascent early once the best
	// bound has gone StallWindow consecutive iterates without improving
	// by more than StallEpsilon times the instance's upper-bound
	// magnitude. Zero disables early termination (the default): the
	// full iteration schedule runs. Early termination only truncates
	// the maximization, so the returned bound remains a valid lower
	// bound — merely as tight as the ascent had gotten.
	StallWindow int
	// StallEpsilon is the relative improvement threshold for
	// StallWindow; <= 0 selects 1e-6.
	StallEpsilon float64
}

// HKWarmState carries the dual state of a Held-Karp ascent so a later
// call on the same instance can resume from it instead of re-climbing
// from pi = 0. The zero value is a valid cold state. States are keyed
// by instance identity (the caller's responsibility): a state from a
// different instance is detected only when the node counts differ.
type HKWarmState struct {
	// Pi is the node-potential vector of the best iterate seen, in the
	// node space of the computation that produced it (the 2n-node
	// symmetric transformation for directed instances). Re-evaluating
	// the 1-tree at this vector reproduces the previous call's best
	// bound exactly, so a warm-started ascent never reports a weaker
	// bound than the state it resumed from.
	Pi []float64
}

// BoundResult reports the outcome of a Held-Karp bound computation.
type BoundResult struct {
	// Bound is the best lower bound found. It is valid for any number of
	// completed iterates.
	Bound float64
	// Iterations is the number of subgradient iterates evaluated.
	Iterations int
	// Truncated is true when the ascent was cut short by its context or
	// budget before the iteration schedule completed.
	Truncated bool
	// Converged is true when the 1-tree became a tour, making the bound
	// provably exact for the relaxed instance.
	Converged bool
	// Stalled is true when StallWindow ended the ascent before its
	// iteration schedule (and before convergence). The bound is still
	// valid; the remaining schedule was judged unlikely to tighten it.
	Stalled bool
}

// hkSchedule returns the subgradient iteration count and step-halving
// period from the node count of the instance being relaxed.
func hkSchedule(nodes, iterations int) (iters, period int) {
	iters = iterations
	if iters <= 0 {
		iters = 100 + 4*nodes
		if iters > 1000 {
			iters = 1000
		}
	}
	period = iters / 8
	if period < 5 {
		period = 5
	}
	return iters, period
}

// stallTracker implements the epsilon-over-window early-termination
// rule of the subgradient ascent: stop once the best bound has
// gone a full window of iterates without improving by more than an
// epsilon fraction of the instance's cost scale. The scale is fixed up
// front (the upper bound's magnitude) rather than derived from the
// current bound: early iterates of shifted instances sit far below
// zero, and a threshold keyed to the moving bound would inflate exactly
// while the ascent makes its fastest progress. Tracking the *best*
// bound (not the per-iterate bound) makes the rule robust to the
// oscillation inherent in subgradient steps.
//
// Counting is armed only once the best bound has cleared the floor —
// the raw-space value below which the bound is trivially useless (a
// directed bound that would clamp to zero). The initial alpha=2 steps
// overshoot on shifted instances, and the ascent legitimately spends
// 100+ iterates below its own first iterate while the step size decays;
// stopping there would save wall clock but certify nothing.
type stallTracker struct {
	window int
	thresh float64
	floor  float64
	count  int
}

// newStallTracker widens window to at least one full step-halving
// period: the ascent routinely plateaus for most of a period before a
// halving unlocks further progress, so a smaller window cannot tell
// "converged" from "waiting for alpha to decay".
func newStallTracker(window, period int, eps, scale, floor float64) stallTracker {
	if window > 0 && window < period {
		window = period
	}
	if eps <= 0 {
		eps = 1e-6
	}
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return stallTracker{window: window, thresh: eps * scale, floor: floor}
}

// observe records one iterate's improvement of the best bound (gain;
// +Inf on the first iterate) and reports whether the ascent should
// stop. Iterates spent at or below the floor never count toward the
// window.
func (s *stallTracker) observe(best, gain float64) bool {
	if s.window <= 0 || best <= s.floor {
		s.count = 0
		return false
	}
	if gain > s.thresh {
		s.count = 0
	} else {
		s.count++
	}
	return s.count >= s.window
}

// HeldKarpDirected computes the Held-Karp bound for an asymmetric
// instance by relaxing its 2-city symmetric transformation, exactly as
// the paper does — but without ever materializing the 2n×2n symmetric
// matrix. The instance is first converted to canonical sparse form
// (Sparsify), which makes the result a pure function of the cost values:
// dense and sparse representations of the same instance yield identical
// bounds. Each subgradient iteration builds the implicit 1-tree in
// O(E + n log n) instead of Θ(n²) (see sparseOneTree), which is what
// makes the bound affordable on multi-thousand-block functions.
func HeldKarpDirected(c Costs, opt HeldKarpOptions) float64 {
	return HeldKarpBound(c, opt).Bound
}

// HeldKarpBound is HeldKarpDirected with the full anytime result: the
// bound plus iterate count, truncation and convergence flags. It is the
// primary entry point for budgeted callers (the engine, balignd); the
// float64-returning wrappers are kept for the batch pipeline.
func HeldKarpBound(c Costs, opt HeldKarpOptions) BoundResult {
	n := c.Len()
	if n < 3 {
		// One or two cities admit a single tour: its cost is the bound.
		return BoundResult{Bound: float64(CycleCost(c, IdentityTour(n))), Converged: true}
	}
	sp := Sparsify(c)
	ot := newSparseOneTree(sp)
	defer ot.release()
	if opt.Warm != nil && len(opt.Warm.Pi) == ot.N {
		copy(ot.pi, opt.Warm.Pi)
	}
	shift := float64(n) * float64(ot.L)
	dirUB := opt.UpperBound
	if dirUB <= 0 {
		dirUB = CycleCost(sp, NearestNeighbor(sp, 0, nil))
	}
	ub := float64(dirUB) - shift

	hsp := opt.Obs.Child("tsp.heldkarp",
		obs.Int("cities", int64(n)), obs.Int("nodes", int64(ot.N)), obs.Float("shift", shift))
	boundSeries := hsp.Series("hk_bound")
	stepSeries := hsp.Series("hk_step")

	iters, period := hkSchedule(ot.N, opt.Iterations)
	alpha := opt.InitialAlpha
	if alpha <= 0 {
		alpha = 2
	}
	best := math.Inf(-1)
	res := BoundResult{}
	cc := newCancelCheck(opt.Context, opt.Budget)
	maxIt := opt.Budget.MaxHKIterations
	// The stall threshold is scaled by the directed upper bound — the
	// instance's true cost magnitude. The raw ascent values sit at
	// -n·L and would swamp any relative epsilon. The arming floor is
	// -shift: raw best above it means the directed bound is positive,
	// i.e. actually worth stopping at.
	st := newStallTracker(opt.StallWindow, period, opt.StallEpsilon, float64(dirUB), -shift)
	for it := 0; it < iters; it++ {
		// Iterate-boundary budget check. The first iterate always runs
		// (it is cheap and guarantees a real bound); later iterates stop
		// as soon as the budget trips — best is already valid.
		if maxIt > 0 && res.Iterations >= maxIt {
			res.Truncated = true
			break
		}
		if res.Iterations > 0 && cc.cancelled() {
			res.Truncated = true
			break
		}
		res.Iterations = it + 1
		w := ot.run()
		var piSum float64
		for _, p := range ot.pi {
			piSum += p
		}
		bound := w - 2*piSum
		gain := bound - best
		if bound > best {
			best = bound
			if opt.Warm != nil {
				opt.Warm.Pi = append(opt.Warm.Pi[:0], ot.pi...)
			}
			// The trajectory is recorded in directed terms (shifted back),
			// so it is directly comparable with tour costs.
			boundSeries.Add(int64(it), bound+shift)
		}
		var norm float64
		for i := 0; i < ot.N; i++ {
			d := float64(ot.deg[i] - 2)
			norm += d * d
		}
		if norm == 0 {
			res.Converged = true
			hsp.SetAttrs(obs.Bool("converged", true))
			break
		}
		if st.observe(best, gain) {
			res.Stalled = true
			break
		}
		step := alpha * (ub - bound) / norm
		if step <= 0 {
			break
		}
		if it%period == 0 {
			stepSeries.Add(int64(it), step)
		}
		for i := 0; i < ot.N; i++ {
			ot.pi[i] += step * float64(ot.deg[i]-2)
		}
		if (it+1)%period == 0 {
			alpha /= 2
		}
	}
	res.Bound = best + shift
	hsp.Count("hk.iterations", int64(res.Iterations))
	hsp.End(obs.Float("bound", res.Bound), obs.Int("iterations", int64(res.Iterations)),
		obs.Bool("truncated", res.Truncated), obs.Bool("stalled", res.Stalled))
	return res
}
