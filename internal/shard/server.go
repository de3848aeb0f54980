package shard

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/httpx"
	"standout/internal/obsv"
)

// Server is the coordinator as an HTTP service: the same JSON dialect as
// internal/serve's /solve, plus partial-result fields, over a scatter-gather
// Coordinator. A coordinator process holds no query log — only shard
// addresses and the schema.
//
// Endpoints: POST /solve, GET /healthz, GET /readyz (per-shard circuit
// health), GET /metrics, GET /debug/requests.
type Server struct {
	cfg    Config
	co     *Coordinator
	mux    *http.ServeMux
	flight *obsv.Flight
	gate   *httpx.Gate

	baseCtx context.Context
	stop    context.CancelFunc
}

// NewServer builds a coordinator HTTP server over cfg (see New for the
// required fields).
func NewServer(cfg Config) (*Server, error) {
	co, err := New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = co.cfg // defaults resolved
	baseCtx, stop := context.WithCancel(context.Background())
	if cfg.Injector != nil {
		baseCtx = fault.WithInjector(baseCtx, cfg.Injector)
	}
	s := &Server{
		cfg:     cfg,
		co:      co,
		flight:  obsv.NewFlight(cfg.FlightSize, cfg.SlowThreshold, cfg.SampleEvery),
		gate:    httpx.NewGate(cfg.MaxConcurrent, cfg.MaxQueue, co.met.inflight, co.met.queueDepth),
		baseCtx: baseCtx,
		stop:    stop,
	}
	mw := &httpx.Middleware{Flight: s.flight, Slow: cfg.SlowThreshold, Logger: slog.Default(),
		OnPanic: func() { co.met.failures.Add(1) }}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/solve", mw.Route("/solve", s.handleSolve))
	s.mux.HandleFunc("/healthz", httpx.Healthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", obsv.Handler(cfg.Registry))
	s.mux.Handle("/debug/requests", s.flight.Handler())
	s.mux.Handle("/debug/requests/", s.flight.Handler())
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Coordinator returns the underlying coordinator, for tests and embedders.
func (s *Server) Coordinator() *Coordinator { return s.co }

// Flight returns the server's flight recorder.
func (s *Server) Flight() *obsv.Flight { return s.flight }

// Close stops background work.
func (s *Server) Close() { s.stop() }

// Request/response bodies — the serve dialect plus the partial-result fields.

type solveRequest struct {
	Tuple     string `json:"tuple"`
	M         int    `json:"m"`
	Algo      string `json:"algo,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

type solveResponse struct {
	httpx.Stamp
	Kept      []string `json:"kept"`
	KeptBits  string   `json:"kept_bits"`
	Satisfied int      `json:"satisfied"`
	Optimal   bool     `json:"optimal"`
	// Estimated marks Satisfied as the estimator rung's certified point
	// estimate (DESIGN.md §16); EstLo ≤ exact ≤ EstHi then brackets the exact
	// weighted count over the union of the responded shards' partitions.
	Estimated bool   `json:"estimated,omitempty"`
	EstLo     int    `json:"est_lo,omitempty"`
	EstHi     int    `json:"est_hi,omitempty"`
	Degraded  bool   `json:"degraded"`
	Solver    string `json:"solver"`
	// Partial reports a response computed over the Responded shard subset
	// only: Satisfied is then the exact optimum (or greedy answer) of the
	// sub-problem those shards hold — a lower bound on the full answer.
	Partial   bool     `json:"partial"`
	Shards    int      `json:"shards"`
	Responded []string `json:"responded,omitempty"`
	Missing   []string `json:"missing,omitempty"`
	Restarts  int      `json:"restarts,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// errorResponse is the body of every error response.
type errorResponse = httpx.ErrorBody

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !httpx.Allow(w, r, http.MethodPost) {
		return
	}
	s.co.met.requests.Add(1)
	var req solveRequest
	if !httpx.Decode(w, r, 1<<20, &req) {
		return
	}
	if req.Algo == "" {
		req.Algo = "greedy"
	}
	if err := checkAlgo(req.Algo, req.M); err != nil {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, err.Error())
		return
	}
	tuple, err := dataset.ParseTuple(s.cfg.Schema, req.Tuple)
	if err != nil {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, "bad tuple: "+err.Error())
		return
	}

	ctx := r.Context()
	if s.cfg.Injector != nil {
		ctx = fault.WithInjector(ctx, s.cfg.Injector)
	}
	if err := s.gate.Admit(ctx); err != nil {
		httpx.WriteAdmitError(ctx, w, err, s.co.met.shed, s.co.met.failures)
		return
	}
	defer s.gate.Release()

	ctx, cancel := context.WithTimeout(ctx, httpx.Timeout(req.TimeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()

	start := time.Now()
	res, err := s.co.Solve(ctx, tuple, req.M, req.Algo)
	elapsed := time.Since(start)
	s.co.met.latency.ObserveExemplar(elapsed.Seconds(), obsv.TraceIDStringFromContext(ctx))
	info := httpx.InfoFrom(ctx)
	info.Algo = req.Algo
	if err != nil {
		s.writeSolveError(ctx, w, err)
		return
	}
	info.Solver, info.Degraded, info.Partial = res.Solver, res.Degraded, res.Partial
	if res.Degraded {
		s.co.met.degraded.Add(1)
	}
	if res.Partial {
		s.co.met.partials.Add(1)
	}
	httpx.WriteJSON(r.Context(), w, http.StatusOK, &solveResponse{
		Kept:      res.Solution.AttrNames(s.cfg.Schema),
		KeptBits:  res.Solution.Kept.String(),
		Satisfied: res.Solution.Satisfied,
		Optimal:   res.Solution.Optimal,
		Estimated: res.Solution.Estimated,
		EstLo:     res.Solution.EstLo,
		EstHi:     res.Solution.EstHi,
		Degraded:  res.Degraded,
		Solver:    res.Solver,
		Partial:   res.Partial,
		Shards:    len(s.co.shards),
		Responded: res.Responded,
		Missing:   res.Missing,
		Restarts:  res.Restarts,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// writeSolveError maps a coordinated-solve failure: deadline exhaustion is
// 504, caller cancellation 503, total shard loss 503 (partial results are
// 200s and never reach here; DESIGN.md §15), anything else 500 — always a
// well-formed JSON body.
func (s *Server) writeSolveError(ctx context.Context, w http.ResponseWriter, err error) {
	httpx.InfoFrom(ctx).Err = err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.co.met.timeouts.Add(1)
		httpx.WriteError(ctx, w, http.StatusGatewayTimeout, "deadline exceeded before the scatter completed")
	case errors.Is(err, context.Canceled):
		httpx.WriteError(ctx, w, http.StatusServiceUnavailable, "request canceled")
	case errors.Is(err, ErrNoShards):
		s.co.met.failures.Add(1)
		httpx.WriteError(ctx, w, http.StatusServiceUnavailable, err.Error())
	default:
		s.co.met.failures.Add(1)
		httpx.WriteError(ctx, w, http.StatusInternalServerError, err.Error())
	}
}

// readyzResponse is the coordinator's readiness report: per-shard circuit
// health in backend order (satellite of DESIGN.md §15).
type readyzResponse struct {
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
}

// handleReadyz reports ready while at least one shard's circuit admits
// traffic — the coordinator still serves exact partial answers then — and
// 503 only when every shard is open (nothing could be answered).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.baseCtx.Err(); err != nil {
		httpx.WriteJSON(r.Context(), w, http.StatusServiceUnavailable, readyzResponse{Status: "shutting down"})
		return
	}
	health := s.co.Health()
	avail := 0
	for _, sh := range s.co.shards {
		if sh.br.available() {
			avail++
		}
	}
	if avail == 0 {
		httpx.WriteJSON(r.Context(), w, http.StatusServiceUnavailable, readyzResponse{Status: "no shards available", Shards: health})
		return
	}
	status := "ready"
	if avail < len(s.co.shards) {
		status = "degraded"
	}
	httpx.WriteJSON(r.Context(), w, http.StatusOK, readyzResponse{Status: status, Shards: health})
}
