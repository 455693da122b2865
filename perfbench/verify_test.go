package main

import (
	"context"
	"encoding/json"
	"testing"

	"branchalign/internal/bench"
	"branchalign/internal/engine"
	"branchalign/internal/layout"
)

// alignOnce runs one request through the engine, as balignd does, and
// returns the response the server would send.
func alignOnce(t *testing.T, in *instance, bound bool) *wireResponse {
	t.Helper()
	req := engine.Request{Module: in.mod, Model: defaultModel, Algorithm: "tsp", Bound: bound, StaticProfile: in.static}
	if !in.static {
		req.Profile = in.prof
	}
	res, err := engine.New(engine.Options{}).Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through JSON, as the client sees it.
	b, err := json.Marshal(wireResponse{Penalty: int64(res.Penalty), OriginalPenalty: int64(res.OriginalPenalty),
		Bound: int64(res.Bound), Funcs: res.Funcs})
	if err != nil {
		t.Fatal(err)
	}
	var r wireResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

func testInstances(t *testing.T) []*instance {
	t.Helper()
	src, err := genModule(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := compileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ByName("su2cor")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := recordProfile(b, "sh")
	if err != nil {
		t.Fatal(err)
	}
	return []*instance{{name: "gen", mod: mod, static: true}, measured}
}

func TestVerifyAcceptsEngineResults(t *testing.T) {
	for _, in := range testInstances(t) {
		for _, bound := range []bool{false, true} {
			if err := verify(in, alignOnce(t, in, bound), bound); err != nil {
				t.Errorf("%s bound=%v: %v", in.name, bound, err)
			}
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	for _, in := range testInstances(t) {
		good := alignOnce(t, in, true)
		big := 0 // the costliest function: some swap of its blocks changes its cost
		for fi, f := range good.Funcs {
			if f.Cost > good.Funcs[big].Cost {
				big = fi
			}
		}
		tamper := map[string]func(r *wireResponse){
			"penalty":          func(r *wireResponse) { r.Penalty++ },
			"original_penalty": func(r *wireResponse) { r.OriginalPenalty-- },
			"bound above cost": func(r *wireResponse) { r.Funcs[big].Bound = r.Funcs[big].Cost + 1 },
			"order swap":       func(r *wireResponse) { swapChangingCost(t, in, big, r.Funcs[big].Order) },
			"order duplicate":  func(r *wireResponse) { o := r.Funcs[big].Order; o[len(o)-1] = o[1] },
			"order range":      func(r *wireResponse) { o := r.Funcs[big].Order; o[len(o)-1] = len(o) },
			"entry not first":  func(r *wireResponse) { o := r.Funcs[big].Order; o[0], o[1] = o[1], o[0] },
		}
		for name, f := range tamper {
			r := alignOnce(t, in, true)
			f(r)
			if err := verify(in, r, true); err == nil {
				t.Errorf("%s: tampered %s accepted", in.name, name)
			}
		}
		if err := verify(in, good, true); err != nil {
			t.Errorf("%s: untampered response rejected: %v", in.name, err)
		}
	}
}

// swapChangingCost swaps two non-entry blocks of function fi's order so
// that the order's real cost changes: a valid permutation whose claimed
// cost is now wrong. (Some swaps keep the cost, e.g. between blocks the
// profile never executes; those responses would still be correct.)
func swapChangingCost(t *testing.T, in *instance, fi int, o []int) {
	t.Helper()
	f, fp := in.mod.Funcs[fi], in.profile().Funcs[fi]
	cost := func() layout.Cost {
		return layout.Penalty(f, layout.Finalize(f, fp, o, defaultModel), fp, defaultModel)
	}
	before := cost()
	for i := 1; i < len(o); i++ {
		for j := i + 1; j < len(o); j++ {
			o[i], o[j] = o[j], o[i]
			if cost() != before {
				return
			}
			o[i], o[j] = o[j], o[i]
		}
	}
	t.Fatalf("%s: no swap changes the cost of %s", in.name, f.Name)
}
