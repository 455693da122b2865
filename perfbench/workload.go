package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"branchalign/internal/bench"
	"branchalign/internal/engine"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
)

// wireRequest mirrors the body of POST /v1/align (balignd's alignRequest),
// field for field, so the traced run decodes exactly what the handler
// decodes.
type wireRequest struct {
	Source       string          `json:"source,omitempty"`
	Bench        string          `json:"bench,omitempty"`
	DataSet      string          `json:"dataset,omitempty"`
	Data         []int64         `json:"data,omitempty"`
	N            *int64          `json:"n,omitempty"`
	Profile      json.RawMessage `json:"profile,omitempty"`
	ProfileMode  string          `json:"profile_mode,omitempty"`
	Model        string          `json:"model,omitempty"`
	Algorithm    string          `json:"algorithm,omitempty"`
	Seed         int64           `json:"seed,omitempty"`
	Bound        bool            `json:"bound,omitempty"`
	HKIterations int             `json:"hk_iterations,omitempty"`
	Parallelism  int             `json:"parallelism,omitempty"`
	TimeoutMS    int64           `json:"timeout_ms,omitempty"`
	MaxKicks     int64           `json:"max_kicks,omitempty"`
	Trace        bool            `json:"trace,omitempty"`
}

// wireResponse mirrors balignd's alignResponse, less the trace events
// the benchmark never asks for.
type wireResponse struct {
	Penalty         int64             `json:"penalty"`
	OriginalPenalty int64             `json:"original_penalty"`
	Normalized      float64           `json:"normalized"`
	Bound           int64             `json:"bound,omitempty"`
	Truncated       bool              `json:"truncated"`
	CacheHit        bool              `json:"cache_hit"`
	Coalesced       bool              `json:"coalesced"`
	ProfileSource   string            `json:"profile_source"`
	Algorithm       string            `json:"algorithm"`
	Funcs           []engine.FuncStat `json:"funcs"`
	ElapsedMS       float64           `json:"elapsed_ms"`
}

// defaultModel is the model balignd uses when a request names none.
var defaultModel = machine.Alpha21164()

// instance is one program a workload sends, with the profile the
// verifier checks its layouts against.
type instance struct {
	name string
	mod  *ir.Module
	// prof is the recorded profile for measured instances; nil for
	// static ones (the verifier estimates it, as the engine does).
	prof   *interp.Profile
	static bool
}

// job is one request of a workload. Repeats of one timed request share
// key; priming requests are never keyed.
type job struct {
	key   int
	inst  *instance
	body  []byte
	bound bool
}

// plan is a workload instantiated from a seed.
type plan struct {
	clients int
	// prime is sent once, in order, before the timed window.
	prime []*job
	// opening is the number of leading requests that penalty_norm and
	// hk_gap_pct are computed over. Requests are numbered in the order
	// the clients take them, and the opening requests are the same under
	// every seed: the quality metrics compare commits on one reference
	// set, exactly, while the seed varies the rest of the traffic.
	opening int
	// job returns request i of the timed window, or nil past the end of
	// a finite workload.
	job func(i int) *job
}

// workload is a named closed-loop traffic mix.
type workload struct {
	name    string
	prepare func(seed int64, seconds int) (*plan, error)
}

var workloads = []workload{
	{"cached-measured", prepareCachedMeasured},
	{"cold-static", prepareColdStatic},
	{"bound-reseed", prepareBoundReseed},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// recordProfile runs the program on its data set as balignd would.
func recordProfile(b *bench.Benchmark, ds string) (*instance, error) {
	mod, err := b.Compile()
	if err != nil {
		return nil, err
	}
	d, err := b.DataSet(ds)
	if err != nil {
		return nil, err
	}
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, d.Make(), interp.Options{Profile: prof, MaxSteps: 1 << 31}); err != nil {
		return nil, fmt.Errorf("profiling %s/%s: %w", b.Name, ds, err)
	}
	return &instance{name: b.Name + "/" + ds, mod: mod, prof: prof}, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

// cachedMeasuredBenches have interpreter runs short enough to repeat
// hundreds of times in a window; doduc, eqntott and go95 take 0.4-2.7 s.
var cachedMeasuredBenches = []string{"compress", "espresso", "su2cor", "xli"}

// cachedMeasuredWeights is how often each request appears in one cycle
// of cached-measured, in cachedMeasuredBenches/data-set order. The
// requests' latencies form separate levels (the interpreter runs 0.4 to
// 120 ms), so equal weights would put the median exactly between two
// levels, where it jumps between them from run to run. These weights
// put the 50th percentile inside the xli/q7 level and the 90th inside
// the compress level.
var cachedMeasuredWeights = []int{2, 2, 1, 1, 1, 1, 3, 1}

// prepareCachedMeasured: 2 clients cycle through the 8 bench/data-set
// requests in a seeded order; set-up primes the result cache, so every
// timed request re-runs compile and the profiling interpreter and then
// hits the cache.
func prepareCachedMeasured(seed int64, _ int) (*plan, error) {
	var distinct, cycle []*job
	for _, name := range cachedMeasuredBenches {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, ds := range b.DataSets {
			inst, err := recordProfile(b, ds.Name)
			if err != nil {
				return nil, err
			}
			j := &job{key: len(distinct), inst: inst,
				body: mustJSON(wireRequest{Bench: name, DataSet: ds.Name, Algorithm: "tsp"})}
			for range cachedMeasuredWeights[len(distinct)] {
				cycle = append(cycle, j)
			}
			distinct = append(distinct, j)
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(cycle))
	return &plan{
		clients: 2,
		prime:   distinct,
		opening: len(cycle),
		job:     func(i int) *job { return cycle[perm[i%len(cycle)]] },
	}, nil
}

// coldStaticRate bounds the request rate the pre-generated module pool
// covers (requests per second of window); the measured rate on a 2-CPU
// host is about 7.
const coldStaticRate = 25

// coldStaticOpening is the size of cold-static's reference set.
const coldStaticOpening = 16

// prepareColdStatic: 2 clients, every request a distinct generated
// module with a static profile, so every request misses the cache and
// runs the whole solver. The first coldStaticOpening requests are the
// reference modules (generator seed -1, never a workload seed); the
// rest come from the workload seed, from index 1 on.
func prepareColdStatic(seed int64, seconds int) (*plan, error) {
	staticJob := func(key int, genSeed int64, index int) (*job, error) {
		src, err := genModule(genSeed, index)
		if err != nil {
			return nil, err
		}
		mod, err := compileSource(src)
		if err != nil {
			return nil, err
		}
		return &job{key: key, inst: &instance{name: fmt.Sprintf("gen(%d,%d)", genSeed, index), mod: mod, static: true},
			body: mustJSON(wireRequest{Source: src, ProfileMode: "static", Algorithm: "tsp"})}, nil
	}
	// The set-up warms the server up on one more module (generator seed
	// -2, so set-up does the same work under every workload seed), so
	// the first timed requests pay no first-use costs and still miss
	// the cache.
	warm, err := staticJob(0, -2, 0)
	if err != nil {
		return nil, err
	}
	jobs := make([]*job, coldStaticRate*seconds)
	for i := range jobs {
		genSeed, index := seed, i-coldStaticOpening+1
		if i < coldStaticOpening {
			genSeed, index = -1, i
		}
		if jobs[i], err = staticJob(i, genSeed, index); err != nil {
			return nil, err
		}
	}
	return &plan{
		clients: 2,
		prime:   []*job{warm},
		opening: coldStaticOpening,
		job: func(i int) *job {
			if i >= len(jobs) {
				return nil
			}
			return jobs[i]
		},
	}, nil
}

// prepareBoundReseed: 1 client sends every bundled module with its
// recorded profile inline and a Held-Karp bound, each request under a
// new solver seed: the result cache always misses while the warm-start
// dual-state cache (keyed without the seed) always hits. One client
// keeps the order warm states are published in, and so every bound,
// deterministic.
func prepareBoundReseed(seed int64, _ int) (*plan, error) {
	type entry struct {
		inst *instance
		src  string
		prof json.RawMessage
	}
	var entries []entry
	for _, b := range bench.All() {
		for _, ds := range b.DataSets {
			inst, err := recordProfile(b, ds.Name)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := inst.prof.WriteJSON(&buf); err != nil {
				return nil, err
			}
			entries = append(entries, entry{inst, b.Source, buf.Bytes()})
		}
	}
	request := func(e entry, reqSeed int64) []byte {
		return mustJSON(wireRequest{Source: e.src, Profile: e.prof, Algorithm: "tsp", Bound: true, Seed: reqSeed})
	}
	var prime []*job
	for _, e := range entries {
		prime = append(prime, &job{inst: e.inst, body: request(e, 0), bound: true})
	}
	// The opening requests take every instance once in bench order with
	// solver seeds 1..n under every workload seed; later requests cycle
	// through a seeded order with seeds seed<<24 + i + 1. No seed is the
	// priming seed 0 and none repeats, so no request hits the result
	// cache.
	n := len(entries)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return &plan{
		clients: 1,
		prime:   prime,
		opening: n,
		job: func(i int) *job {
			e, reqSeed := entries[perm[i%n]], seed<<24+int64(i)+1
			if i < n {
				e, reqSeed = entries[i], int64(i)+1
			}
			return &job{key: i, inst: e.inst, body: request(e, reqSeed), bound: true}
		},
	}, nil
}
