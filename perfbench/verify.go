package main

import (
	"fmt"

	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/staticprof"
)

// profile returns the profile the instance's layouts are judged on: the
// recorded one, or for a static instance the estimate the engine makes.
func (in *instance) profile() *interp.Profile {
	if in.prof == nil && in.static {
		in.prof, _ = staticprof.Estimate(in.mod)
	}
	return in.prof
}

// verify checks one response independently of the server: it rebuilds
// the layout from the returned block orders, runs the layout invariant
// checker on it, and recomputes both penalties and the per-function
// costs. When a bound was requested, every function's bound must not
// exceed its cost.
func verify(in *instance, r *wireResponse, bound bool) error {
	mod, prof := in.mod, in.profile()
	if len(r.Funcs) != len(mod.Funcs) {
		return fmt.Errorf("%d function results for %d functions", len(r.Funcs), len(mod.Funcs))
	}
	l := &layout.Layout{}
	var boundSum int64
	for fi, f := range mod.Funcs {
		fs := r.Funcs[fi]
		if fs.Name != f.Name {
			return fmt.Errorf("function %d is %q, want %q", fi, fs.Name, f.Name)
		}
		// Finalize indexes by block, so reject out-of-range blocks
		// first; check.Layouts catches the rest of a bad permutation.
		for _, b := range fs.Order {
			if b < 0 || b >= len(f.Blocks) {
				return fmt.Errorf("%s: block %d out of range", f.Name, b)
			}
		}
		fl := layout.Finalize(f, prof.Funcs[fi], fs.Order, defaultModel)
		l.Funcs = append(l.Funcs, fl)
		if err := fl.Validate(f); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if c := int64(layout.Penalty(f, fl, prof.Funcs[fi], defaultModel)); c != fs.Cost {
			return fmt.Errorf("%s: cost %d, its order costs %d", f.Name, fs.Cost, c)
		}
		if bound && fs.Bound > fs.Cost {
			return fmt.Errorf("%s: bound %d exceeds cost %d", f.Name, fs.Bound, fs.Cost)
		}
		boundSum += fs.Bound
	}
	if rep := check.Layouts(mod, prof, l, defaultModel); !rep.OK() {
		return fmt.Errorf("layout check: %v", rep.Err())
	}
	if p := int64(layout.ModulePenalty(mod, l, prof, defaultModel)); p != r.Penalty {
		return fmt.Errorf("penalty %d, the returned orders cost %d", r.Penalty, p)
	}
	orig := layout.Identity(mod, prof, defaultModel)
	if p := int64(layout.ModulePenalty(mod, orig, prof, defaultModel)); p != r.OriginalPenalty {
		return fmt.Errorf("original_penalty %d, the compiler order costs %d", r.OriginalPenalty, p)
	}
	if bound && boundSum != r.Bound {
		return fmt.Errorf("bound %d, function bounds sum to %d", r.Bound, boundSum)
	}
	return nil
}
