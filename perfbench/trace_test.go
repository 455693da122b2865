package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"branchalign/internal/obs"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "engine.align", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]; a third sticks out of
		// the parent and counts only up to its end.
		{ID: 2, Parent: 1, Name: "align.func", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "align.func", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "align.func", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "tsp.solve", Start: 15, End: 35},
	}}
	self := r.selfTimes()
	for i, want := range []int64{40, 10, 30, 30, 20} {
		if self[i] != want {
			t.Errorf("span %d self time %d, want %d", i+1, self[i], want)
		}
	}
}

func TestLayerMetricsMedianOverRequests(t *testing.T) {
	const ms = 1_000_000
	r := &recorder{}
	for req, d := range []int64{1, 3, 2} {
		id := int64(len(r.spans) + 1)
		r.spans = append(r.spans,
			span{ID: id, Req: req, Name: "engine.align", Start: 0, End: 4 * d * ms},
			span{ID: id + 1, Parent: id, Req: req, Name: "tsp.solve", Start: 0, End: d * ms, Counts: map[string]int64{"tsp.runs": d}})
	}
	m := r.layerMetrics()
	for k, want := range map[string]float64{"engine.align_ms": 8, "engine.self_ms": 6, "tsp.solve_ms": 2, "tsp.runs": 2, "interp.run_ms": 0} {
		if m[k] != want {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

func TestImportEngineSpans(t *testing.T) {
	r := newRecorder()
	r.spans = []span{{ID: 1, Name: "engine.align", Start: 5000, End: 2_000_000}}
	events := []obs.Event{
		// Children are emitted before their parents, as the tracer does.
		{Type: "span", Name: "tsp.run", ID: 4, Parent: 3, StartUS: 260, DurUS: 100, Attrs: map[string]any{"kicks": int64(7)}},
		{Type: "span", Name: "tsp.run", ID: 5, Parent: 3, StartUS: 370, DurUS: 100, Attrs: map[string]any{"kicks": int64(8)}},
		{Type: "span", Name: "tsp.solve", ID: 3, Parent: 2, StartUS: 250, DurUS: 400, Attrs: map[string]any{"runs": int64(2)}},
		{Type: "span", Name: "align.func", ID: 2, Parent: 1, StartUS: 200, DurUS: 500},
		{Type: "counter", Name: "tsp.moves"},
		{Type: "span", Name: "engine.align", ID: 1, StartUS: 100, DurUS: 1000},
	}
	r.importEngine(0, 1, events)
	if len(r.spans) != 3 {
		t.Fatalf("got %d spans, want engine.align, align.func, tsp.solve", len(r.spans))
	}
	fn, solve := r.spans[1], r.spans[2]
	if fn.Name != "align.func" || fn.Parent != 1 || fn.Start != 5000+100_000 || fn.End != fn.Start+500_000 {
		t.Errorf("align.func imported as %+v", fn)
	}
	if solve.Name != "tsp.solve" || solve.Parent != fn.ID || solve.Counts["tsp.runs"] != 2 || solve.Counts["tsp.kicks"] != 15 {
		t.Errorf("tsp.solve imported as %+v", solve)
	}

	var buf bytes.Buffer
	if err := r.writeNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var n int
	for ; dec.More(); n++ {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
	}
	if n != 3 {
		t.Errorf("NDJSON has %d spans, want 3", n)
	}
}

// TestTracedRunCachedMeasured serves cached-measured's opening requests
// in process: every request is a cache hit, so the engine records no
// solver spans, and the profiling interpreter is the largest layer.
func TestTracedRunCachedMeasured(t *testing.T) {
	p, err := prepareCachedMeasured(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, overhead, err := tracedRun(p)
	if err != nil {
		t.Fatal(err)
	}
	if overhead <= 0 {
		t.Errorf("overhead ratio %v", overhead)
	}
	m := rec.layerMetrics()
	for _, k := range []string{"tsp.solve_ms", "align.build_matrix_ms", "align.hk_ms", "tsp.kicks", "staticprof.estimate_ms"} {
		if m[k] != 0 {
			t.Errorf("%s = %v on cache hits", k, m[k])
		}
	}
	for _, k := range []string{"balignd.decode_ms", "minic.parse_ms", "lower.program_ms", "engine.align_ms", "balignd.encode_ms", "interp.steps", "ir.blocks"} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}
	for _, lm := range layerMetrics {
		if lm.unit == "ms" && lm.name != "interp.run_ms" && lm.name != "engine.align_ms" && m[lm.name] >= m["interp.run_ms"] {
			t.Errorf("%s = %v ms is not below interp.run_ms = %v ms", lm.name, m[lm.name], m["interp.run_ms"])
		}
	}
}
