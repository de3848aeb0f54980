// Package serve is the hardened HTTP/JSON serving layer over the SOC-CB-QL
// solver stack: the paper's §VII online scenario — a seller submits a new
// tuple and wants its best m-attribute compression against a live query log
// — as a long-running service built to survive sustained traffic and
// misbehaving dependencies.
//
// Robustness model (DESIGN.md §10):
//
//   - Admission control: a bounded concurrency pool plus a bounded wait
//     queue; beyond that, requests are shed immediately with 429 and a
//     Retry-After hint instead of queueing into a latency collapse.
//   - Deadline propagation: every request's timeout (client-chosen, clamped)
//     flows as a context deadline into the solvers, which cancel promptly.
//   - Degradation ladder: when the remaining budget is too small for the
//     requested algorithm the server falls back exact → MFI-exact → greedy,
//     marks the response degraded:true, and names the solver actually used.
//     Every rung above greedy is exact, so degraded answers are never worse
//     than the greedy baseline.
//   - Panic isolation: a panicking solve (malformed instance, injected
//     chaos) is recovered into a 4xx/5xx response; sibling requests and the
//     process are untouched.
//   - Stale-prep recovery: the shared PreparedLog index is rebuilt
//     single-flight with jittered backoff when the query log is swapped
//     (POST /log, copy-on-write) or Touch'ed mid-flight; solves that caught
//     ErrStalePrep retry against the rebuilt index.
//
// Endpoints: POST /solve, POST /solve/batch, POST /score (additive counting
// oracle for the shard coordinator), GET /schema, GET /log, POST /log
// (append, copy-on-write swap), POST /log/touch (force staleness),
// GET /healthz, GET /readyz, GET /metrics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/httpx"
	"standout/internal/obsv"
)

// Config tunes a Server. The zero value of every field selects a sensible
// default; only Log is required.
type Config struct {
	// Log is the initial query log (required). The server owns it from New
	// on: mutate only through the /log endpoints or Swap.
	Log *dataset.QueryLog
	// MaxConcurrent bounds simultaneously solving requests; default
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a solve slot; beyond it requests
	// are shed with 429. Default 4 × MaxConcurrent.
	MaxQueue int
	// DefaultTimeout applies when a request names none; default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts; default 30s.
	MaxTimeout time.Duration
	// ExactBudget is the minimum remaining deadline budget for which an
	// exact rung (brute/ip/ilp) is attempted; default 250ms.
	ExactBudget time.Duration
	// MFIBudget is the same floor for the MFI-exact rung; default 25ms.
	MFIBudget time.Duration
	// GreedyReserve is the slice of budget an upper rung must leave for the
	// rungs below it; default 5ms.
	GreedyReserve time.Duration
	// GreedyBudget is the minimum remaining deadline budget for which the
	// greedy rung is attempted once a warmed estimator model exists for the
	// request's log generation; below it the ladder serves the itemset+LP
	// estimate rung (DESIGN.md §16) — a 200 carrying estimated:true and a
	// certified interval instead of a timeout. While no model is warmed,
	// greedy keeps its floor of zero. Default 1ms.
	GreedyBudget time.Duration
	// ShedEstimate answers admission-shed /solve requests with an estimated
	// 200 (no solve slot consumed: the estimator never touches the log or the
	// shared index) instead of a 429, when a warmed model for the request's
	// log generation exists. Off by default: shedding stays a hard 429 unless
	// opted in.
	ShedEstimate bool
	// RebuildRetries bounds prep rebuild attempts and stale-solve retries;
	// default 3.
	RebuildRetries int
	// RebuildBackoff is the base backoff between rebuild attempts (doubled
	// per attempt, plus seeded jitter); default 2ms.
	RebuildBackoff time.Duration
	// BatchWorkers bounds the workers of one /solve/batch request; default
	// MaxConcurrent.
	BatchWorkers int
	// SolverWorkers is the worker count handed to solvers with an internal
	// parallel mode (brute, ilp, mfi-exact); ≤ 0 means 1 (sequential).
	// Answers are bit-identical at any setting — the parallel engines are
	// deterministic (DESIGN.md §11) — so this only trades latency for CPU.
	SolverWorkers int
	// MaxBatch bounds tuples per /solve/batch request; default 4096.
	MaxBatch int
	// Seed drives backoff jitter; default 1.
	Seed int64
	// Registry receives the serve metrics and backs /metrics; default
	// obsv.Default.
	Registry *obsv.Registry
	// Injector, when non-nil, attaches deterministic fault injection to
	// every request and rebuild context (chaos testing).
	Injector *fault.Injector
	// FlightSize bounds the flight-recorder ring of completed-request
	// records; default 256, negative disables the recorder.
	FlightSize int
	// SlowThreshold marks requests at or above it as slow: always kept by
	// the recorder and logged at Warn; default 500ms.
	SlowThreshold time.Duration
	// SampleEvery keeps 1-in-N boring successes in the recorder (errored,
	// shed, degraded, panicked, faulted and slow requests are always kept);
	// default 1 (keep everything).
	SampleEvery int
	// Logger receives the structured slow-request log; default slog.Default.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.ExactBudget <= 0 {
		c.ExactBudget = 250 * time.Millisecond
	}
	if c.MFIBudget <= 0 {
		c.MFIBudget = 25 * time.Millisecond
	}
	if c.GreedyReserve <= 0 {
		c.GreedyReserve = 5 * time.Millisecond
	}
	if c.GreedyBudget <= 0 {
		c.GreedyBudget = time.Millisecond
	}
	if c.RebuildRetries <= 0 {
		c.RebuildRetries = 3
	}
	if c.RebuildBackoff <= 0 {
		c.RebuildBackoff = 2 * time.Millisecond
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = c.MaxConcurrent
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Registry == nil {
		c.Registry = obsv.Default
	}
	if c.FlightSize == 0 {
		c.FlightSize = 256
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 500 * time.Millisecond
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the hardened solving service. Construct with New, mount
// Handler() on an http.Server, and Close when done.
type Server struct {
	cfg    Config
	met    *metrics
	adm    *httpx.Gate
	prep   *prepCache
	mux    *http.ServeMux
	flight *obsv.Flight

	baseCtx context.Context
	stop    context.CancelFunc

	mu  sync.Mutex // serializes log swaps
	log *dataset.QueryLog
}

// New validates cfg and returns a running Server (its prep index builds
// lazily on first use; readyz reports readiness).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Log == nil {
		return nil, errors.New("serve: Config.Log is required")
	}
	if err := cfg.Log.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid query log: %w", err)
	}
	baseCtx, stop := context.WithCancel(context.Background())
	if cfg.Injector != nil {
		baseCtx = fault.WithInjector(baseCtx, cfg.Injector)
	}
	s := &Server{
		cfg:     cfg,
		met:     newMetrics(cfg.Registry),
		flight:  obsv.NewFlight(cfg.FlightSize, cfg.SlowThreshold, cfg.SampleEvery),
		baseCtx: baseCtx,
		stop:    stop,
		log:     cfg.Log,
	}
	s.adm = httpx.NewGate(cfg.MaxConcurrent, cfg.MaxQueue, s.met.inflight, s.met.queueDepth)
	s.prep = newPrepCache(s.CurrentLog, baseCtx, httpx.NewBackoff(cfg.RebuildBackoff, cfg.Seed), cfg.RebuildRetries, s.met)
	mw := &httpx.Middleware{Flight: s.flight, Slow: cfg.SlowThreshold, Logger: cfg.Logger, OnPanic: func() {
		s.met.panics.Add(1)
		s.met.failures.Add(1)
	}}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/solve", mw.Route("/solve", s.handleSolve))
	s.mux.HandleFunc("/solve/batch", mw.Route("/solve/batch", s.handleBatch))
	s.mux.HandleFunc("/score", mw.Route("/score", s.handleScore))
	s.mux.HandleFunc("/schema", s.handleSchema)
	s.mux.HandleFunc("/log", mw.Route("/log", s.handleLog))
	s.mux.HandleFunc("/log/touch", mw.Route("/log/touch", s.handleTouch))
	s.mux.HandleFunc("/healthz", httpx.Healthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", obsv.Handler(cfg.Registry))
	s.mux.Handle("/debug/requests", s.flight.Handler())
	s.mux.Handle("/debug/requests/", s.flight.Handler())
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Flight returns the server's flight recorder (nil when disabled), for tests
// and embedding processes that want programmatic access to recent requests.
func (s *Server) Flight() *obsv.Flight { return s.flight }

// Close stops background work (in-flight rebuild sleeps, readiness kicks).
// In-flight requests finish on their own deadlines.
func (s *Server) Close() { s.stop() }

// CurrentLog returns the log generation new requests solve against.
func (s *Server) CurrentLog() *dataset.QueryLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Swap atomically replaces the query log for new requests (in-flight
// requests finish against their snapshot) and invalidates the shared index.
func (s *Server) Swap(log *dataset.QueryLog) error {
	if err := log.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if log.Width() != s.log.Width() {
		w, cw := log.Width(), s.log.Width()
		s.mu.Unlock()
		return fmt.Errorf("serve: new log width %d does not match current width %d", w, cw)
	}
	s.log = log
	s.mu.Unlock()
	s.met.logSwaps.Add(1)
	return nil
}

// reqCtx derives a request's working context: the client context plus the
// server's fault injector.
func (s *Server) reqCtx(r *http.Request) context.Context {
	ctx := r.Context()
	if s.cfg.Injector != nil {
		ctx = fault.WithInjector(ctx, s.cfg.Injector)
	}
	return ctx
}

// Request/response bodies.

type solveRequest struct {
	// Tuple is a 0/1 bit string of the schema width or a comma-separated
	// attribute-name list.
	Tuple string `json:"tuple"`
	// M is the attribute budget.
	M int `json:"m"`
	// Algo selects the algorithm; default "mfi-exact". See AlgoNames.
	Algo string `json:"algo,omitempty"`
	// TimeoutMS bounds the solve; 0 means the server default, values above
	// the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type solveResponse struct {
	// Stamp echoes the request's distributed trace ID (also in the
	// X-Request-Id and traceparent response headers).
	httpx.Stamp
	Kept      []string `json:"kept"`
	KeptBits  string   `json:"kept_bits"`
	Satisfied int      `json:"satisfied"`
	Optimal   bool     `json:"optimal"`
	// Degraded reports that the deadline ladder served a cheaper solver than
	// requested; Solver names the rung that produced the answer.
	Degraded bool   `json:"degraded"`
	Solver   string `json:"solver"`
	// Estimated reports that Satisfied is a certified point estimate from the
	// itemset+LP rung (DESIGN.md §16) rather than an exact count; Estimate
	// then carries the interval containing the exact count.
	Estimated bool            `json:"estimated,omitempty"`
	Estimate  *estimateBounds `json:"estimate,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// estimateBounds certifies lo ≤ exact satisfied count ≤ hi for an estimated
// response, against the log generation the estimator model summarized.
type estimateBounds struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// boundsOf extracts an estimated solution's certified interval, nil for
// exact solutions.
func boundsOf(sol core.Solution) *estimateBounds {
	if !sol.Estimated {
		return nil
	}
	return &estimateBounds{Lo: sol.EstLo, Hi: sol.EstHi}
}

type batchRequest struct {
	Tuples    []string `json:"tuples"`
	M         int      `json:"m"`
	Algo      string   `json:"algo,omitempty"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
	Workers   int      `json:"workers,omitempty"`
}

type batchItem struct {
	// Exactly one of Result and Error is set per tuple.
	Result *solveResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

type batchResponse struct {
	httpx.Stamp
	Results []batchItem `json:"results"`
	// Error carries the batch-level failure (first failing tuple), if any;
	// Results still holds everything that completed before cancellation.
	Error     string  `json:"error,omitempty"`
	Degraded  bool    `json:"degraded"`
	Solver    string  `json:"solver"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type logResponse struct {
	Queries     int    `json:"queries"`
	TotalWeight int    `json:"total_weight"`
	Width       int    `json:"width"`
	Version     uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

type appendRequest struct {
	Append []string `json:"append"`
	// Weights optionally assigns a multiplicity ≥ 1 to each appended query
	// (len must equal len(Append)); omitted means every query counts once.
	// Weighted entries are how a log summarizer (internal/compact) feeds its
	// folded duplicates back into a serving log.
	Weights []int `json:"weights,omitempty"`
}

// errorResponse is the body of every error response.
type errorResponse = httpx.ErrorBody

// timeoutFor clamps the request's timeout wish into (0, MaxTimeout].
func (s *Server) timeoutFor(ms int) time.Duration {
	return httpx.Timeout(ms, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
}

// admit runs the admission gate for one request, returning false after
// writing the 429/503 response itself.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	if err := s.adm.Admit(ctx); err != nil {
		httpx.WriteAdmitError(ctx, w, err, s.met.shed, s.met.failures)
		return false
	}
	return true
}

// shedEstimate is the shed-of-last-resort path (Config.ShedEstimate): an
// admission-shed solve request is answered 200 with the estimator's
// certified interval when a warmed model for the request's log generation
// exists. No solve slot is consumed — the estimator touches neither the log
// nor the shared index, so serving it cannot deepen the overload. Returns
// false (leaving the 429 to the caller) when the path is disabled, no model
// is warmed, or the estimate itself fails.
func (s *Server) shedEstimate(ctx context.Context, w http.ResponseWriter, log *dataset.QueryLog, tuple bitvec.Vector, m int, algo string, timeoutMS int) bool {
	if !s.cfg.ShedEstimate {
		return false
	}
	r, ok := s.estimateRung(log)
	if !ok {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, s.timeoutFor(timeoutMS))
	defer cancel()
	start := time.Now()
	sol, err := s.safeSolve(ctx, func(ctx context.Context) (core.Solution, error) {
		return r.solver.SolveContext(ctx, core.Instance{Log: log, Tuple: tuple, M: m})
	})
	if err != nil {
		return false
	}
	elapsed := time.Since(start)
	s.met.latency.ObserveExemplar(elapsed.Seconds(), obsv.TraceIDStringFromContext(ctx))
	s.met.shedEstimated.Add(1)
	s.met.estimated.Add(1)
	degraded := algo != "estimate"
	if degraded {
		s.met.degraded.Add(1)
	}
	info := httpx.InfoFrom(ctx)
	info.Algo, info.Solver, info.Degraded = algo, "estimate", degraded
	httpx.WriteJSON(ctx, w, http.StatusOK, &solveResponse{
		Kept:      sol.AttrNames(log.Schema),
		KeptBits:  sol.Kept.String(),
		Satisfied: sol.Satisfied,
		Optimal:   sol.Optimal,
		Degraded:  degraded,
		Solver:    "estimate",
		Estimated: sol.Estimated,
		Estimate:  boundsOf(sol),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	})
	return true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !httpx.Allow(w, r, http.MethodPost) {
		return
	}
	s.met.requests.Add(1)
	var req solveRequest
	if !httpx.Decode(w, r, 1<<20, &req) {
		return
	}
	log := s.CurrentLog()
	tuple, algo, status, errMsg := s.validateSolve(log, req.Tuple, req.M, req.Algo)
	if status != 0 {
		httpx.WriteError(r.Context(), w, status, errMsg)
		return
	}

	ctx := s.reqCtx(r)
	if err := s.adm.Admit(ctx); err != nil {
		if errors.Is(err, httpx.ErrShed) && s.shedEstimate(ctx, w, log, tuple, req.M, algo, req.TimeoutMS) {
			return
		}
		httpx.WriteAdmitError(ctx, w, err, s.met.shed, s.met.failures)
		return
	}
	defer s.adm.Release()

	ctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req.TimeoutMS))
	defer cancel()

	start := time.Now()
	sol, used, degraded, err := s.solveLadder(ctx, algo, log, tuple, req.M)
	elapsed := time.Since(start)
	s.met.latency.ObserveExemplar(elapsed.Seconds(), obsv.TraceIDStringFromContext(ctx))
	info := httpx.InfoFrom(ctx)
	info.Algo, info.Solver, info.Degraded = algo, used, degraded
	if err != nil {
		s.writeSolveError(ctx, w, err)
		return
	}
	if degraded {
		s.met.degraded.Add(1)
	}
	if sol.Estimated {
		s.met.estimated.Add(1)
	}
	httpx.WriteJSON(r.Context(), w, http.StatusOK, &solveResponse{
		Kept:      sol.AttrNames(log.Schema),
		KeptBits:  sol.Kept.String(),
		Satisfied: sol.Satisfied,
		Optimal:   sol.Optimal,
		Degraded:  degraded,
		Solver:    used,
		Estimated: sol.Estimated,
		Estimate:  boundsOf(sol),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// validateSolve checks the parseable parts of a solve request against the
// log snapshot; a non-zero status reports the 4xx to return.
func (s *Server) validateSolve(log *dataset.QueryLog, tupleSpec string, m int, algo string) (bitvec.Vector, string, int, string) {
	if algo == "" {
		algo = "mfi-exact"
	}
	if _, ok := algorithms[algo]; !ok {
		return bitvec.Vector{}, "", http.StatusBadRequest,
			fmt.Sprintf("unknown algo %q (have %v)", algo, AlgoNames())
	}
	if m < 0 {
		return bitvec.Vector{}, "", http.StatusBadRequest, fmt.Sprintf("negative budget m=%d", m)
	}
	tuple, err := dataset.ParseTuple(log.Schema, tupleSpec)
	if err != nil {
		return bitvec.Vector{}, "", http.StatusBadRequest, "bad tuple: " + err.Error()
	}
	return tuple, algo, 0, ""
}

// writeSolveError maps a ladder failure to a response: deadline exhaustion
// is 504, client cancellation 503, panics and injected faults 500 — always a
// well-formed JSON body, never a hung or half-written connection.
func (s *Server) writeSolveError(ctx context.Context, w http.ResponseWriter, err error) {
	info := httpx.InfoFrom(ctx)
	info.Err = err.Error()
	var pe *core.PanicError
	switch {
	case errors.As(err, &pe):
		s.met.failures.Add(1)
		info.Panicked = true
		httpx.WriteJSON(ctx, w, http.StatusInternalServerError, &errorResponse{Error: err.Error(), Panic: true})
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		httpx.WriteError(ctx, w, http.StatusGatewayTimeout, "deadline exceeded before any rung completed")
	case errors.Is(err, context.Canceled):
		httpx.WriteError(ctx, w, http.StatusServiceUnavailable, "request canceled")
	default:
		s.met.failures.Add(1)
		httpx.WriteError(ctx, w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !httpx.Allow(w, r, http.MethodPost) {
		return
	}
	s.met.requests.Add(1)
	var req batchRequest
	if !httpx.Decode(w, r, 64<<20, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, "empty tuples")
		return
	}
	if len(req.Tuples) > s.cfg.MaxBatch {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Tuples), s.cfg.MaxBatch))
		return
	}
	log := s.CurrentLog()
	if req.Algo == "" {
		req.Algo = "mfi-exact"
	}
	if _, ok := algorithms[req.Algo]; !ok {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("unknown algo %q (have %v)", req.Algo, AlgoNames()))
		return
	}
	if req.M < 0 {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("negative budget m=%d", req.M))
		return
	}

	// Per-tuple parse errors are attributed without poisoning the batch:
	// only well-formed tuples are dispatched to the solver pool.
	items := make([]batchItem, len(req.Tuples))
	var tuples []bitvec.Vector
	var solveIdx []int
	for i, spec := range req.Tuples {
		tuple, err := dataset.ParseTuple(log.Schema, spec)
		if err != nil {
			items[i] = batchItem{Error: "bad tuple: " + err.Error()}
			continue
		}
		tuples = append(tuples, tuple)
		solveIdx = append(solveIdx, i)
	}

	ctx := s.reqCtx(r)
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.Release()

	ctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req.TimeoutMS))
	defer cancel()

	// The ladder is applied once for the whole batch: a budget too small for
	// the requested tier degrades every tuple to a cheaper exact-or-greedy
	// solver rather than letting the deadline kill the batch midway.
	algo, degraded := s.batchAlgo(ctx, req.Algo)
	solver := algorithms[algo](s.cfg.SolverWorkers)

	workers := req.Workers
	if workers <= 0 || workers > s.cfg.BatchWorkers {
		workers = s.cfg.BatchWorkers
	}

	start := time.Now()
	var sols []core.Solution
	var errs []error
	var batchErr error
	if len(tuples) > 0 {
		// Without the shared prep (a superseded generation, or persistent
		// rebuild failure) the batch scans, as attempt and /score do, rather
		// than index that generation for this one batch.
		pctx := core.WithoutPreparation(ctx)
		if p, perr := s.prep.get(ctx, log); perr == nil {
			pctx = core.WithPrepared(ctx, p)
		}
		sols, errs, batchErr = core.SolveBatchContext(pctx, solver, log, tuples, req.M, workers)
	}
	elapsed := time.Since(start)
	s.met.latency.ObserveExemplar(elapsed.Seconds(), obsv.TraceIDStringFromContext(ctx))
	info := httpx.InfoFrom(ctx)
	info.Algo, info.Solver, info.Degraded = req.Algo, algo, degraded

	if batchErr != nil && len(sols) == 0 && errors.Is(batchErr, context.DeadlineExceeded) {
		s.met.timeouts.Add(1)
		httpx.WriteError(r.Context(), w, http.StatusGatewayTimeout, "batch deadline exceeded")
		return
	}

	resp := batchResponse{
		Results:   items,
		Degraded:  degraded,
		Solver:    algo,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if degraded {
		s.met.degraded.Add(1)
	}
	completed := 0
	for k, i := range solveIdx {
		switch {
		case errs != nil && errs[k] != nil:
			items[i] = batchItem{Error: errs[k].Error()}
		case sols != nil && sols[k].Kept.Width() != 0:
			completed++
			items[i] = batchItem{Result: &solveResponse{
				Kept:      sols[k].AttrNames(log.Schema),
				KeptBits:  sols[k].Kept.String(),
				Satisfied: sols[k].Satisfied,
				Optimal:   sols[k].Optimal,
				Degraded:  degraded,
				Solver:    algo,
				Estimated: sols[k].Estimated,
				Estimate:  boundsOf(sols[k]),
			}}
		default:
			items[i] = batchItem{Error: "skipped: batch canceled before this tuple was attempted"}
		}
	}
	if batchErr != nil {
		resp.Error = batchErr.Error()
		info.Err = batchErr.Error()
		var pe *core.PanicError
		if errors.As(batchErr, &pe) {
			s.met.panics.Add(1)
			info.Panicked = true
		}
	}
	httpx.WriteJSON(r.Context(), w, http.StatusOK, &resp)
}

// batchAlgo picks the batch's solver tier from the remaining budget: the
// requested tier when it fits, else the best tier whose floor fits.
func (s *Server) batchAlgo(ctx context.Context, algo string) (string, bool) {
	deadline, ok := ctx.Deadline()
	if !ok || greedyNames[algo] {
		return algo, false
	}
	remaining := time.Until(deadline)
	floor := s.cfg.ExactBudget
	if algo == "mfi" || algo == "mfi-exact" {
		floor = s.cfg.MFIBudget
	}
	if remaining >= floor {
		return algo, false
	}
	if remaining >= s.cfg.MFIBudget {
		return "mfi-exact", true
	}
	return "greedy", true
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		log := s.CurrentLog()
		httpx.WriteJSON(r.Context(), w, http.StatusOK, s.logStats(log))
	case http.MethodPost:
		var req appendRequest
		if !httpx.Decode(w, r, 64<<20, &req) {
			return
		}
		if len(req.Append) == 0 {
			httpx.WriteError(r.Context(), w, http.StatusBadRequest, "empty append")
			return
		}
		if req.Weights != nil && len(req.Weights) != len(req.Append) {
			httpx.WriteError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf(
				"weights length %d does not match append length %d", len(req.Weights), len(req.Append)))
			return
		}
		// Parse and check the whole batch first, into a log of its own, so a
		// rejected batch never reaches the shared store.
		batch := dataset.NewQueryLog(s.CurrentLog().Schema)
		for i, spec := range req.Append {
			q, err := dataset.ParseTuple(batch.Schema, spec)
			if err == nil {
				weight := 1
				if req.Weights != nil {
					weight = req.Weights[i]
				}
				err = batch.AppendWeighted(q, weight)
			}
			if err != nil {
				httpx.WriteError(r.Context(), w, http.StatusBadRequest, "bad query: "+err.Error())
				return
			}
		}
		// Extend the current generation: in-flight requests keep solving
		// theirs, new requests see the new one. It appends into the store
		// the current one shares, copying nothing, and its lineage lets the
		// single-flight rebuild extend the previous index with a delta
		// segment instead of re-indexing from scratch.
		s.mu.Lock()
		next := s.log.Extend()
		for i, q := range batch.Queries {
			_ = next.AppendWeighted(q, batch.Weight(i)) // checked into batch above
		}
		s.log = next
		s.mu.Unlock()
		s.met.logSwaps.Add(1)
		httpx.WriteJSON(r.Context(), w, http.StatusOK, s.logStats(next))
	default:
		w.Header().Set("Allow", "GET, POST")
		httpx.WriteError(r.Context(), w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleTouch bumps the current log's version — the deliberate staleness
// lever: every in-flight prep solve observes ErrStalePrep and the
// single-flight rebuild path re-indexes. Chaos tests use it to force
// cache-rebuild races; operators use it after out-of-band log edits.
func (s *Server) handleTouch(w http.ResponseWriter, r *http.Request) {
	if !httpx.Allow(w, r, http.MethodPost) {
		return
	}
	log := s.CurrentLog()
	log.Touch()
	httpx.WriteJSON(r.Context(), w, http.StatusOK, s.logStats(log))
}

// logStats describes log. The cached prep's rolling fingerprint state and
// total weight cover a prefix of the generation a reply reports whenever the
// generation extends the prep's snapshot, so the reply costs a hash of the
// queries appended since, not of the whole log.
func (s *Server) logStats(log *dataset.QueryLog) logResponse {
	var fp uint64
	var weight int
	if p := s.prep.snapshot(); p != nil {
		fp, weight = p.LogSummary(log)
	} else {
		fp, weight = log.Fingerprint(), log.TotalWeight()
	}
	return logResponse{
		Queries:     log.Size(),
		TotalWeight: weight,
		Width:       log.Width(),
		Version:     log.Version(),
		Fingerprint: fmt.Sprintf("%016x", fp),
	}
}

// handleReadyz is readiness: the shared index matches the current log
// generation and the admission queue has room. When the index is missing or
// stale it reports 503 so load balancers drain to warmed replicas, and
// starts a background single-flight build unless one is already in flight.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.baseCtx.Err(); err != nil {
		httpx.WriteJSON(r.Context(), w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	log := s.CurrentLog()
	if p := s.prep.snapshot(); usable(p, log) {
		httpx.WriteJSON(r.Context(), w, http.StatusOK, map[string]any{"status": "ready", "queue_depth": s.adm.Depth()})
		return
	}
	s.prep.kick(log)
	httpx.WriteJSON(r.Context(), w, http.StatusServiceUnavailable, map[string]string{"status": "index not ready"})
}
