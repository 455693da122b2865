package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"sync/atomic"
	"time"

	"branchalign/internal/engine"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/stats"
	"branchalign/internal/tsp"
)

// serverConfig carries the knobs the flags set.
type serverConfig struct {
	// Workers bounds concurrent per-function solves (engine pool).
	Workers int
	// Parallelism is the default per-run solver parallelism applied to
	// requests that don't set their own (see engine.Options.Parallelism).
	// Results are bit-identical at every setting, so it never enters the
	// cache key.
	Parallelism int
	// CacheEntries bounds the engine result cache.
	CacheEntries int
	// MaxInflight bounds concurrently served /v1/align requests; excess
	// requests are shed with 429 rather than queued, so a burst cannot
	// build an unbounded backlog of goroutines holding parsed modules.
	MaxInflight int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout clamps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by default:
	// profiling endpoints expose heap contents and cost CPU, so they are
	// opt-in per process, not per scrape).
	Pprof bool
	// LogWriter receives the structured JSON logs (access lines,
	// lifecycle events). Nil silences them — main passes os.Stderr,
	// tests pass a buffer or nothing.
	LogWriter io.Writer
}

func (c serverConfig) withDefaults() serverConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	return c
}

type server struct {
	cfg      serverConfig
	reg      *obs.Registry
	eng      *engine.Engine
	logger   *slog.Logger
	inflight chan struct{}
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observability middleware

	// draining flips once, when shutdown begins: /v1/readyz goes 503 so
	// load balancers stop routing here, while /v1/healthz stays 200 so
	// orchestrators do not kill the process mid-drain.
	draining atomic.Bool

	// Server-level counters, alongside the middleware's HTTP families.
	// shed/alignErrors/alignTruncated classify /v1/align outcomes the
	// status code alone does not (truncated solves are 200s).
	sheds          *obs.Counter
	alignErrors    *obs.Counter
	alignTruncated *obs.Counter

	// testHookAligning, when set, runs inside handleAlign after the
	// in-flight slot is taken — the deterministic window server tests
	// (drain, shedding) synchronize on.
	testHookAligning func()
}

// newServer wires the registry, engine, middleware and routes. It is
// the unit the tests exercise through httptest, independent of sockets
// and signals.
func newServer(cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	logOut := cfg.LogWriter
	if logOut == nil {
		logOut = io.Discard
	}
	reg := obs.NewRegistry()
	s := &server{
		cfg: cfg,
		reg: reg,
		eng: engine.New(engine.Options{
			Workers:      cfg.Workers,
			Parallelism:  cfg.Parallelism,
			CacheEntries: cfg.CacheEntries,
			Registry:     reg,
		}),
		logger:   slog.New(slog.NewJSONHandler(logOut, nil)),
		inflight: make(chan struct{}, cfg.MaxInflight),
		mux:      http.NewServeMux(),
		sheds: reg.Counter("balignd_sheds_total",
			"Align requests shed with 429 at the in-flight cap."),
		alignErrors: reg.Counter("balignd_align_errors_total",
			"Align requests that failed (malformed input, expired deadline before solving)."),
		alignTruncated: reg.Counter("balignd_align_truncated_total",
			"Align responses whose solve was truncated by a deadline or budget."),
	}
	s.mux.HandleFunc("POST /v1/align", s.handleAlign)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	// Catch-all: unknown routes get the same structured JSON error body
	// as every other failure, not net/http's plain-text 404 page.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path),
			Kind:  "not_found",
		})
	})
	s.handler = newMiddleware(s.mux, reg, s.logger)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// startDrain marks the server not-ready. In-flight requests keep
// running (http.Server.Shutdown waits for them); only the readiness
// probe changes, so traffic stops arriving before connections close.
func (s *server) startDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "draining")
	}
}

// alignRequest is the wire form of one alignment job: a program (inline
// Mini-C source, or the name of a bundled benchmark) plus either a
// training input or a previously recorded profile (the JSON written by
// `balign -profile-out`).
type alignRequest struct {
	Source  string `json:"source,omitempty"`
	Bench   string `json:"bench,omitempty"`
	DataSet string `json:"dataset,omitempty"`

	Data []int64 `json:"data,omitempty"`
	N    *int64  `json:"n,omitempty"`
	// Profile, when present, is used instead of running the program.
	Profile json.RawMessage `json:"profile,omitempty"`
	// ProfileMode selects where the profile comes from: "measured" (the
	// default — run the program or use Profile) or "static" (no profiling
	// at all: the engine estimates edge frequencies from CFG structure;
	// Data/N/Profile must be absent).
	ProfileMode string `json:"profile_mode,omitempty"`

	Model string `json:"model,omitempty"`
	// Algorithm selects the aligner by registry name ("tsp", "exttsp",
	// "greedy", ...); empty means "tsp". Unknown names are rejected with
	// kind "unknown_algorithm".
	Algorithm string `json:"algorithm,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	Bound        bool `json:"bound,omitempty"`
	HKIterations int  `json:"hk_iterations,omitempty"`

	// Parallelism overrides the server's per-run solver parallelism for
	// this request (-1 = all CPUs). The response is bit-identical at
	// every setting — only wall-clock changes — so a cached result solved
	// at one setting is served for every other.
	Parallelism int `json:"parallelism,omitempty"`

	// TimeoutMS and MaxKicks budget the solve; see tsp.Budget. A
	// deadline hit yields a valid truncated result, not an error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	MaxKicks  int64 `json:"max_kicks,omitempty"`

	// Trace returns the request-scoped telemetry events inline.
	Trace bool `json:"trace,omitempty"`
}

type alignResponse struct {
	Penalty         int64   `json:"penalty"`
	OriginalPenalty int64   `json:"original_penalty"`
	Normalized      float64 `json:"normalized"`
	Bound           int64   `json:"bound,omitempty"`
	Truncated       bool    `json:"truncated"`
	CacheHit        bool    `json:"cache_hit"`
	Coalesced       bool    `json:"coalesced"`
	// ProfileSource reports what drove the alignment: "measured" or
	// "static" (estimated; such results live in a disjoint cache
	// partition from measured ones).
	ProfileSource string `json:"profile_source"`
	// Algorithm echoes the aligner that produced the layout (the request
	// default resolved, so clients always see the concrete name).
	Algorithm string `json:"algorithm"`

	Funcs       []engine.FuncStat `json:"funcs"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	TraceEvents []obs.Event       `json:"trace_events,omitempty"`
}

// errorResponse is the structured error body every non-200 carries:
// Error is the human-readable message, Kind a stable machine-readable
// discriminator clients can switch on without parsing prose.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// errKind classifies an error into the wire discriminator.
func errKind(code int, err error) string {
	switch {
	case errors.Is(err, engine.ErrNoModule):
		return "no_module"
	case errors.Is(err, engine.ErrNoProfile):
		return "no_profile"
	case errors.Is(err, engine.ErrProfileConflict):
		return "profile_conflict"
	case errors.Is(err, engine.ErrUnknownAlgorithm):
		return "unknown_algorithm"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	}
	switch code {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusTooManyRequests:
		return "capacity"
	case http.StatusServiceUnavailable:
		return "timeout"
	}
	return "internal"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness only: stays 200 through a drain so the orchestrator does
	// not kill a process that is still finishing requests.
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// statsResponse is the /v1/stats body. Every number is read back from
// the metrics registry (or the engine's handles into it), so this JSON
// view and the /metrics exposition can never disagree —
// TestStatsMatchesMetrics pins the parity.
type statsResponse struct {
	Server struct {
		Requests  int64 `json:"requests"`
		Shed      int64 `json:"shed"`
		Errors    int64 `json:"errors"`
		Truncated int64 `json:"truncated"`
	} `json:"server"`
	Engine engine.Stats `json:"engine"`
}

func (s *server) statsSnapshot() statsResponse {
	var out statsResponse
	// "requests" keeps its historical meaning: align requests accepted
	// for handling, shed ones included. The middleware's counter ticks
	// on completion, and sheds are also counted there, so in-flight
	// align requests appear once they finish.
	out.Server.Requests = int64(s.reg.Sum("balignd_http_requests_total",
		map[string]string{"endpoint": "/v1/align"}))
	out.Server.Shed = s.sheds.Value()
	out.Server.Errors = s.alignErrors.Value()
	out.Server.Truncated = s.alignTruncated.Value()
	out.Engine = s.eng.Stats()
	return out
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		// Shed instead of queueing: the caller can retry with backoff,
		// and /v1/healthz stays responsive because it never takes this
		// path.
		s.sheds.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "server at capacity", Kind: "capacity"})
		return
	}
	if s.testHookAligning != nil {
		s.testHookAligning()
	}

	req, err := decodeAlign(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// r.Context() additionally cancels the solve when the client goes
	// away — no point polishing a layout nobody will read.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, httpCode, err := s.align(ctx, req)
	if err != nil {
		s.fail(w, httpCode, err)
		return
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if res.Truncated {
		s.alignTruncated.Inc()
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeAlign decodes exactly one alignRequest object from body. Unknown
// fields are rejected, so a misspelt field (say "profle_mode") fails
// instead of silently taking its default, and so is anything but
// whitespace after the object.
func decodeAlign(body io.Reader) (alignRequest, error) {
	var req alignRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("trailing data after the request object")
	}
	return req, nil
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	s.alignErrors.Inc()
	writeJSON(w, code, errorResponse{Error: err.Error(), Kind: errKind(code, err)})
}

// align resolves the request into a module+profile and runs it through
// the engine. The int return is the HTTP status to use when err != nil.
func (s *server) align(ctx context.Context, req alignRequest) (*alignResponse, int, error) {
	static, err := pickProfileMode(req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	model, err := machine.ByName(req.Model)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	mod, prof, err := s.eng.Load(engine.Program{
		Bench: req.Bench, DataSet: req.DataSet, Source: req.Source,
		Data: req.Data, N: req.N, Recorded: req.Profile,
	}, static)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "tsp"
	}

	var (
		tr   *obs.Trace
		sink *obs.MemorySink
		root *obs.Span
	)
	if req.Trace {
		sink = &obs.MemorySink{}
		tr = obs.New(sink)
		root = tr.Start("balignd.align", obs.String("model", model.Name),
			obs.String("algorithm", algorithm), obs.Int("seed", req.Seed))
		// Stamp the middleware-assigned request ID on the root span, so
		// an access-log line leads straight to the solver trace that
		// served it (`balign report -in` prints it back in its header).
		if id := requestID(ctx); id != "" {
			root.SetAttrs(obs.String("request_id", id))
		}
	}

	eres, err := s.eng.Align(ctx, engine.Request{
		Module:        mod,
		Profile:       prof,
		StaticProfile: static,
		Model:         model,
		Algorithm:     algorithm,
		Seed:          req.Seed,
		Budget: tsp.Budget{
			MaxKicks:        req.MaxKicks,
			MaxHKIterations: 0, // the iterate count is HKIterations itself
		},
		Bound:        req.Bound,
		HKIterations: req.HKIterations,
		Parallelism:  req.Parallelism,
		Obs:          root,
	})
	if err != nil {
		// Distinguish "the request's own deadline consumed before
		// solving began" from malformed input.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, http.StatusServiceUnavailable, err
		}
		return nil, http.StatusBadRequest, err
	}

	resp := &alignResponse{
		Penalty:         int64(eres.Penalty),
		OriginalPenalty: int64(eres.OriginalPenalty),
		Normalized:      stats.Ratio(eres.Penalty, eres.OriginalPenalty, 1),
		Bound:           int64(eres.Bound),
		Truncated:       eres.Truncated,
		CacheHit:        eres.CacheHit,
		Coalesced:       eres.Coalesced,
		ProfileSource:   "measured",
		Algorithm:       algorithm,
		Funcs:           eres.Funcs,
	}
	if eres.ProfileEstimated {
		resp.ProfileSource = "static"
	}
	if req.Trace {
		root.End(obs.Bool("truncated", eres.Truncated))
		if err := tr.Close(); err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.TraceEvents = sink.Events()
	}
	return resp, 0, nil
}

// pickProfileMode validates the request's profile_mode. It returns
// whether the engine should estimate the profile statically; Load
// rejects a static request that also carries profiling inputs.
func pickProfileMode(req alignRequest) (bool, error) {
	switch req.ProfileMode {
	case "", "measured":
		return false, nil
	case "static":
		return true, nil
	}
	return false, fmt.Errorf("unknown profile_mode %q (want \"measured\" or \"static\")", req.ProfileMode)
}
