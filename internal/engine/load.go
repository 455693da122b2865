package engine

import (
	"bytes"
	"errors"
	"fmt"

	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
	"branchalign/internal/obs"
)

// Program is the input side of an alignment job as the front ends
// (balign's flags, balignd's request body) receive it: the program to
// compile and where its training profile comes from. Compile and Profile
// turn it into the Module and Profile of a Request.
type Program struct {
	// Bench names a bundled benchmark, DataSet one of its data sets
	// (default: the first). Source is Mini-C source text. Exactly one of
	// Bench and Source must be set.
	Bench, DataSet string
	Source         string
	// Data and N are the entry function's array and scalar arguments (N
	// defaults to len(Data)). Only a Source program takes them: a
	// benchmark brings its own inputs.
	Data []int64
	N    *int64
	// Recorded is a previously recorded profile (the JSON of
	// interp.Profile.WriteJSON). When set, Profile parses it instead of
	// running the program, so Data and N must be absent.
	Recorded []byte
}

// check rejects field combinations that would leave a field unused:
// an input the loader silently dropped would hide a caller's mistake.
func (p Program) check() error {
	hasInputs := len(p.Data) > 0 || p.N != nil
	switch {
	case p.Bench != "" && p.Source != "":
		return errors.New("request has both source and bench; pick one")
	case p.Bench == "" && p.Source == "":
		return errors.New("request needs source or bench")
	case p.DataSet != "" && p.Bench == "":
		return errors.New("a dataset needs a bench")
	case hasInputs && len(p.Recorded) > 0:
		return fmt.Errorf("a recorded profile excludes data/n: %w", ErrProfileConflict)
	case hasInputs && p.Bench != "":
		return fmt.Errorf("bench %q brings its own inputs; data/n apply to source programs only", p.Bench)
	}
	return nil
}

// bench resolves a benchmark program to its canonical benchmark and data
// set: an abbreviation names the same benchmark as its full name, and
// an empty DataSet the first data set.
func (p Program) bench() (*bench.Benchmark, *bench.DataSet, error) {
	b, err := bench.ByName(p.Bench)
	if err != nil {
		return nil, nil, err
	}
	name := p.DataSet
	if name == "" {
		name = b.DataSets[0].Name
	}
	ds, err := b.DataSet(name)
	if err != nil {
		return nil, nil, err
	}
	return b, ds, nil
}

// n is the entry function's scalar argument: N, or len(Data) when N is
// absent.
func (p Program) n() int64 {
	if p.N != nil {
		return *p.N
	}
	return int64(len(p.Data))
}

// Compile compiles the program and shapes its entry function's training
// inputs.
func (p Program) Compile() (*ir.Module, []interp.Input, error) {
	if err := p.check(); err != nil {
		return nil, nil, err
	}
	if p.Bench != "" {
		b, ds, err := p.bench()
		if err != nil {
			return nil, nil, err
		}
		mod, err := b.Compile()
		if err != nil {
			return nil, nil, err
		}
		return mod, ds.Make(), nil
	}
	prog, err := minic.Parse(p.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing source: %w", err)
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("checking source: %w", err)
	}
	mod, err := lower.Program(info)
	if err != nil {
		return nil, nil, fmt.Errorf("lowering source: %w", err)
	}
	entry := mod.Funcs[mod.EntryFunc]
	switch {
	case len(entry.Params) == 0:
		if len(p.Data) > 0 || p.N != nil {
			return nil, nil, errors.New("entry main() takes no arguments; data/n would be ignored")
		}
		return mod, nil, nil
	case len(entry.Params) == 1 && entry.Params[0] == ir.ParamScalar:
		return mod, []interp.Input{interp.ScalarInput(p.n())}, nil
	case len(entry.Params) == 2 && entry.Params[0] == ir.ParamArray && entry.Params[1] == ir.ParamScalar:
		return mod, []interp.Input{interp.ArrayInput(p.Data), interp.ScalarInput(p.n())}, nil
	}
	return nil, nil, errors.New("entry main must have signature (), (n) or (input[], n)")
}

// Profile returns the training profile of mod, the module Compile
// returned: p.Recorded parsed when set, otherwise measured by running
// mod on inputs (capped at 2³¹ interpreter steps). A measured run is
// recorded as a "profile" span under parent and its interpreter result
// returned; a recorded profile returns the zero Result.
func (p Program) Profile(mod *ir.Module, inputs []interp.Input, parent *obs.Span) (*interp.Profile, interp.Result, error) {
	if len(p.Recorded) > 0 {
		prof, err := interp.ReadProfileJSON(bytes.NewReader(p.Recorded), mod)
		if err != nil {
			return nil, interp.Result{}, fmt.Errorf("reading profile: %w", err)
		}
		return prof, interp.Result{}, nil
	}
	sp := parent.Child("profile")
	prof := interp.NewProfile(mod)
	res, err := interp.Run(mod, inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31})
	if err != nil {
		sp.End(obs.Bool("failed", true))
		return nil, res, fmt.Errorf("profiling run failed: %w", err)
	}
	sp.End(obs.Int("steps", res.Steps), obs.Int("dyn_branches", res.DynBranches()))
	return prof, res, nil
}

// loaded is one profile-cache entry: a compiled module and the profile
// measured by running it. Every request that hits the entry shares both.
type loaded struct {
	mod  *ir.Module
	prof *interp.Profile
}

// Load turns p into the Module and Profile of a Request, one of three
// ways:
//
//   - static: p is compiled only and the profile is nil (the engine
//     estimates one), so p must carry no recorded profile and no data/n;
//   - p.Recorded set: p is compiled and the recorded profile parsed;
//   - otherwise: p is compiled and run by the interpreter, through the
//     profile cache.
//
// Only the measured case uses the cache. Its key digests the inputs the
// run consumes (profileKey) and is looked up before compiling, so a hit
// skips compile and the interpreter both. A hit returns the module and
// profile every other hit on the key shares, so callers must not mutate
// them. Errors are never cached: a failing program fails again on every
// request, with the same error.
func (e *Engine) Load(p Program, static bool) (*ir.Module, *interp.Profile, error) {
	if static {
		if len(p.Recorded) > 0 || len(p.Data) > 0 || p.N != nil {
			return nil, nil, fmt.Errorf("a static profile excludes a recorded profile and data/n: %w", ErrProfileConflict)
		}
		mod, _, err := p.Compile()
		return mod, nil, err
	}
	if len(p.Recorded) > 0 {
		mod, inputs, err := p.Compile()
		if err != nil {
			return nil, nil, err
		}
		prof, _, err := p.Profile(mod, inputs, nil)
		return mod, prof, err
	}
	if err := p.check(); err != nil {
		return nil, nil, err
	}
	key, err := profileKey(p)
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	ent, ok := e.profiles.get(key)
	e.mu.Unlock()
	if ok {
		e.met.profileHits.Inc()
		return ent.mod, ent.prof, nil
	}
	e.met.profileMisses.Inc()
	mod, inputs, err := p.Compile()
	if err != nil {
		return nil, nil, err
	}
	prof, _, err := p.Profile(mod, inputs, nil)
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// A concurrent identical miss may have stored its run first: return
	// that entry, so every request on this key shares one module.
	if ent, ok := e.profiles.get(key); ok {
		return ent.mod, ent.prof, nil
	}
	e.profiles.put(key, loaded{mod, prof})
	return mod, prof, nil
}
