package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"branchalign/internal/bench"
	"branchalign/internal/engine"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
	"branchalign/internal/obs"
	"branchalign/internal/staticprof"
	"branchalign/internal/stats"
	"branchalign/internal/tsp"
)

// span is one recorded interval of the traced run. Times are
// nanoseconds since the recorder's epoch.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Req    int              `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps the traced run's spans in memory; they are written out
// once the run ends. The traced run is sequential, so it needs no lock.
type recorder struct {
	epoch time.Time
	spans []span // spans[i].ID == i+1
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// open starts a span and returns its ID.
func (r *recorder) open(req int, parent int64, name string) int64 {
	id := int64(len(r.spans) + 1)
	now := r.at(time.Now())
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) close(id int64) { r.spans[id-1].End = r.at(time.Now()) }

func (r *recorder) count(id int64, name string, n int64) {
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] += n
}

// timed records fn as a span.
func (r *recorder) timed(req int, parent int64, name string, fn func()) {
	id := r.open(req, parent, name)
	fn()
	r.close(id)
}

// engineSpans are the engine's own spans that become children of the
// benchmark's engine.align span. Other engine spans (tsp.run,
// tsp.heldkarp) belong to the layer of their nearest kept ancestor.
var engineSpans = map[string]bool{"align.func": true, "align.build_matrix": true, "tsp.solve": true, "align.hk": true}

// importEngine adds the spans the engine recorded under root (its obs
// span for the call the benchmark timed as span parent) to the record.
// The engine stamps microseconds relative to its trace; they are placed
// relative to the parent span's recorded start.
func (r *recorder) importEngine(req int, parent int64, events []obs.Event) {
	byID := map[int64]obs.Event{}
	var root obs.Event
	for _, e := range events {
		if e.Type != "span" {
			continue
		}
		byID[e.ID] = e
		if e.Parent == 0 {
			root = e
		}
	}
	// Parents end after their children, so resolve IDs in start order.
	ordered := make([]obs.Event, 0, len(byID))
	for _, e := range byID {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].StartUS != ordered[j].StartUS {
			return ordered[i].StartUS < ordered[j].StartUS
		}
		return ordered[i].ID < ordered[j].ID
	})
	mapped := map[int64]int64{root.ID: parent}
	base := r.spans[parent-1].Start
	for _, e := range ordered {
		if e.ID == root.ID {
			continue
		}
		p, ok := mapped[e.Parent]
		if !ok {
			p = parent
		}
		if !engineSpans[e.Name] {
			mapped[e.ID] = p // fold into the nearest kept ancestor
			if e.Name == "tsp.run" {
				r.count(p, "tsp.kicks", e.Int("kicks"))
			}
			continue
		}
		id := int64(len(r.spans) + 1)
		start := base + (e.StartUS-root.StartUS)*1000
		r.spans = append(r.spans, span{ID: id, Parent: p, Req: req, Name: e.Name,
			Start: start, End: start + e.DurUS*1000})
		mapped[e.ID] = id
		switch e.Name {
		case "tsp.solve":
			r.count(id, "tsp.runs", e.Int("runs"))
		case "align.hk":
			r.count(id, "tsp.hk_iterations", e.Int("iterations"))
		}
	}
}

// selfTimes returns each span's duration minus the part of it covered
// by the union of its children. Per-function solves run concurrently
// on the engine's pool, so children may overlap each other.
func (r *recorder) selfTimes() []int64 {
	children := make([][][2]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		iv := children[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerMetrics aggregates the record into per-layer metrics: for each
// layer the median over requests of its per-request self time in ms
// (engine.align_ms is the whole engine call), and per-request medians
// of the counts. A layer a request never entered counts 0 for it.
func (r *recorder) layerMetrics() map[string]float64 {
	self := r.selfTimes()
	per := map[int]map[string]float64{}
	add := func(req int, name string, v float64) {
		if per[req] == nil {
			per[req] = map[string]float64{}
		}
		per[req][name] += v
	}
	for i, s := range r.spans {
		ms := float64(self[i]) / 1e6
		switch s.Name {
		case "engine.align":
			add(s.Req, "engine.align_ms", float64(s.End-s.Start)/1e6)
			add(s.Req, "engine.self_ms", ms)
		case "balignd.request":
			add(s.Req, "balignd.self_ms", ms)
		case "align.func":
			// Predictions and bookkeeping around each solve: part of the
			// engine's per-function work, reported by its children.
		default:
			add(s.Req, s.Name+"_ms", ms)
		}
		for k, v := range s.Counts {
			add(s.Req, k, float64(v))
		}
	}
	out := map[string]float64{}
	for _, name := range tracedLayers {
		var vals []float64
		for _, m := range per {
			vals = append(vals, m[name])
		}
		out[name] = median(vals)
	}
	return out
}

// tracedLayers are the per-layer metrics the traced run reports.
var tracedLayers = []string{
	"balignd.decode_ms", "balignd.encode_ms", "balignd.self_ms",
	"minic.parse_ms", "minic.check_ms", "lower.program_ms", "ir.blocks",
	"interp.run_ms", "interp.steps", "interp.profile_decode_ms",
	"staticprof.estimate_ms",
	"engine.align_ms", "engine.self_ms",
	"align.build_matrix_ms", "tsp.solve_ms", "tsp.runs", "tsp.kicks",
	"align.hk_ms", "tsp.hk_iterations",
}

func (r *recorder) writeNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// handle serves one request body in process the way balignd's handler
// does: the same public calls in the same order (decode, compile,
// profile, engine, encode). With rec nil nothing is recorded and the
// engine runs without telemetry, as under balignd. It returns the
// request's module, for the separate staticprof timing.
func handle(eng *engine.Engine, body []byte, rec *recorder, req int) (*ir.Module, error) {
	var root int64
	sp := func(name string, fn func()) { fn() }
	if rec != nil {
		root = rec.open(req, 0, "balignd.request")
		defer rec.close(root)
		sp = func(name string, fn func()) { rec.timed(req, root, name, fn) }
	}
	var (
		wr  wireRequest
		err error
	)
	sp("balignd.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&wr) })
	if err != nil {
		return nil, err
	}
	static := wr.ProfileMode == "static"
	src := wr.Source
	var ds *bench.DataSet
	if wr.Bench != "" {
		b, err := bench.ByName(wr.Bench)
		if err != nil {
			return nil, err
		}
		name := wr.DataSet
		if name == "" {
			name = b.DataSets[0].Name
		}
		if ds, err = b.DataSet(name); err != nil {
			return nil, err
		}
		src = b.Source
	}
	var (
		prog *minic.Program
		info *minic.Info
		mod  *ir.Module
	)
	sp("minic.parse", func() { prog, err = minic.Parse(src) })
	if err == nil {
		sp("minic.check", func() { info, err = minic.Check(prog) })
	}
	if err == nil {
		sp("lower.program", func() { mod, err = lower.Program(info) })
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		total, _ := moduleSize(mod)
		rec.count(root, "ir.blocks", int64(total))
	}
	var inputs []interp.Input
	if ds != nil {
		inputs = ds.Make()
	} else if inputs, err = shapeInputs(mod); err != nil {
		return nil, err
	}
	var prof *interp.Profile
	switch {
	case static:
	case len(wr.Profile) > 0:
		sp("interp.profile_decode", func() { prof, err = interp.ReadProfileJSON(bytes.NewReader(wr.Profile), mod) })
	default:
		prof = interp.NewProfile(mod)
		var res interp.Result
		sp("interp.run", func() { res, err = interp.Run(mod, inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31}) })
		if rec != nil {
			rec.count(root, "interp.steps", res.Steps)
		}
	}
	if err != nil {
		return nil, err
	}

	ereq := engine.Request{Module: mod, Profile: prof, StaticProfile: static, Model: defaultModel,
		Algorithm: wr.Algorithm, Seed: wr.Seed, Budget: tsp.Budget{MaxKicks: wr.MaxKicks},
		Bound: wr.Bound, HKIterations: wr.HKIterations, Parallelism: wr.Parallelism}
	var (
		eres *engine.Result
		sink obs.MemorySink
	)
	if rec == nil {
		eres, err = eng.Align(context.Background(), ereq)
	} else {
		tr := obs.New(&sink)
		id := rec.open(req, root, "engine.align")
		ereq.Obs = tr.Start("engine.align")
		eres, err = eng.Align(context.Background(), ereq)
		ereq.Obs.End()
		rec.close(id)
		if cerr := tr.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			rec.importEngine(req, id, sink.Events())
		}
	}
	if err != nil {
		return nil, err
	}
	resp := wireResponse{
		Penalty:         int64(eres.Penalty),
		OriginalPenalty: int64(eres.OriginalPenalty),
		Normalized:      stats.Ratio(eres.Penalty, eres.OriginalPenalty, 1),
		Bound:           int64(eres.Bound),
		Truncated:       eres.Truncated,
		CacheHit:        eres.CacheHit,
		Coalesced:       eres.Coalesced,
		ProfileSource:   "measured",
		Algorithm:       wr.Algorithm,
		Funcs:           eres.Funcs,
	}
	if eres.ProfileEstimated {
		resp.ProfileSource = "static"
	}
	var out bytes.Buffer
	sp("balignd.encode", func() {
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	return mod, err
}

// shapeInputs matches the entry signature as balignd does for inline
// source without data (n is 0).
func shapeInputs(mod *ir.Module) ([]interp.Input, error) {
	entry := mod.Funcs[mod.EntryFunc]
	switch {
	case len(entry.Params) == 0:
		return nil, nil
	case len(entry.Params) == 1 && entry.Params[0] == ir.ParamScalar:
		return []interp.Input{interp.ScalarInput(0)}, nil
	case len(entry.Params) == 2 && entry.Params[0] == ir.ParamArray && entry.Params[1] == ir.ParamScalar:
		return []interp.Input{interp.ArrayInput(nil), interp.ScalarInput(0)}, nil
	}
	return nil, fmt.Errorf("entry main must have signature (), (n) or (input[], n)")
}

// tracedRequests caps the requests the traced run serves: cold-static
// requests take about 0.3 s each, and the run serves each twice.
const tracedRequests = 12

// tracedRun serves the workload's opening requests in process twice,
// interleaved request by request: once untraced and once traced, each
// on its own freshly primed engine. It returns the record of the traced
// pass and the tracing overhead (traced median request time over the
// untraced median).
func tracedRun(p *plan) (*recorder, float64, error) {
	engines := [2]*engine.Engine{engine.New(engine.Options{}), engine.New(engine.Options{})}
	for _, eng := range engines {
		for _, j := range p.prime {
			if _, err := handle(eng, j.body, nil, 0); err != nil {
				return nil, 0, fmt.Errorf("priming %s in process: %w", j.inst.name, err)
			}
		}
	}
	rec := newRecorder()
	var plain, traced []float64
	for i := 0; i < min(p.opening, tracedRequests); i++ {
		j := p.job(i)
		t0 := time.Now()
		if _, err := handle(engines[0], j.body, nil, i); err != nil {
			return nil, 0, fmt.Errorf("%s untraced: %w", j.inst.name, err)
		}
		plain = append(plain, float64(time.Since(t0)))
		t0 = time.Now()
		mod, err := handle(engines[1], j.body, rec, i)
		if err != nil {
			return nil, 0, fmt.Errorf("%s traced: %w", j.inst.name, err)
		}
		traced = append(traced, float64(time.Since(t0)))
		if j.inst.static {
			// The engine estimates the static profile inside Align, where
			// it records no span; time the same call on the same module
			// on its own, outside the request.
			rec.timed(i, 0, "staticprof.estimate", func() { staticprof.Estimate(mod) })
		}
	}
	return rec, median(traced) / median(plain), nil
}

// median returns the median of vals (0 for none).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
