package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/httpx"
	"standout/internal/obsv"
)

// The scoring endpoints back the sharded scatter-gather coordinator
// (internal/shard): a shard is an ordinary socserve instance holding one
// partition of the query log, and the coordinator drives solves by asking
// each shard for additive weighted counts instead of full solves — the only
// composition that is bit-identical to the unsharded solver (DESIGN.md §15).
//
//	POST /score   {"mode": "subset"|"superset", "candidates": [...]}
//	GET  /schema  the serving schema, so a coordinator needs no workload copy

type scoreRequest struct {
	// Mode selects the counting oracle: "subset" counts queries contained in
	// each candidate (the SOC-CB-QL objective), "superset" counts queries
	// containing it (greedy co-occurrence scores and attribute frequencies).
	Mode string `json:"mode"`
	// Candidates are tuples in the /solve syntax: 0/1 bit strings of the
	// schema width or comma-separated attribute-name lists.
	Candidates []string `json:"candidates"`
	// TimeoutMS bounds the scoring pass; 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type scoreResponse struct {
	httpx.Stamp
	// Counts has one total per candidate, aligned with the request order.
	Counts []int `json:"counts"`
	// Log-snapshot facts, so a coordinator can detect mid-request log swaps.
	Queries     int     `json:"queries"`
	TotalWeight int     `json:"total_weight"`
	Width       int     `json:"width"`
	Version     uint64  `json:"version"`
	Fingerprint string  `json:"fingerprint"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

type schemaResponse struct {
	Attrs []string `json:"attrs"`
	Width int      `json:"width"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if !httpx.Allow(w, r, http.MethodPost) {
		return
	}
	s.met.requests.Add(1)
	var req scoreRequest
	if !httpx.Decode(w, r, 64<<20, &req) {
		return
	}
	if req.Mode != "subset" && req.Mode != "superset" {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (have subset, superset)", req.Mode))
		return
	}
	if len(req.Candidates) == 0 {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, "empty candidates")
		return
	}
	if len(req.Candidates) > s.cfg.MaxBatch {
		httpx.WriteError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Candidates), s.cfg.MaxBatch))
		return
	}
	log := s.CurrentLog()
	cands := make([]bitvec.Vector, len(req.Candidates))
	for i, spec := range req.Candidates {
		cand, err := dataset.ParseTuple(log.Schema, spec)
		if err != nil {
			httpx.WriteError(r.Context(), w, http.StatusBadRequest, "bad candidate: "+err.Error())
			return
		}
		cands[i] = cand
	}

	ctx := s.reqCtx(r)
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.Release()

	ctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req.TimeoutMS))
	defer cancel()

	start := time.Now()
	// Both oracles answer from the shared index; a missing or still-building
	// prep falls back to plain scans, bit-identically.
	pctx := ctx
	p, perr := s.prep.get(ctx, log)
	if perr == nil {
		pctx = core.WithPrepared(ctx, p)
	}
	var counts []int
	var err error
	if req.Mode == "subset" {
		counts, err = core.CountSatisfied(pctx, log, cands)
	} else {
		counts, err = core.CountContaining(pctx, log, cands)
	}
	elapsed := time.Since(start)
	s.met.latency.ObserveExemplar(elapsed.Seconds(), obsv.TraceIDStringFromContext(ctx))
	if err != nil {
		s.writeSolveError(ctx, w, err)
		return
	}
	// A usable prep already holds the snapshot's fingerprint and total
	// weight; the log would recompute each with a pass over its queries.
	var total int
	var fp uint64
	if perr == nil && usable(p, log) {
		total, fp = p.TotalWeight(), p.Fingerprint()
	} else {
		total, fp = log.TotalWeight(), log.Fingerprint()
	}
	httpx.WriteJSON(r.Context(), w, http.StatusOK, &scoreResponse{
		Counts:      counts,
		Queries:     log.Size(),
		TotalWeight: total,
		Width:       log.Width(),
		Version:     log.Version(),
		Fingerprint: fmt.Sprintf("%016x", fp),
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
	})
}

// handleSchema serves the schema of the current log, so a shard coordinator
// can parse tuples and render kept-attribute names without holding any
// workload of its own.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if !httpx.Allow(w, r, http.MethodGet) {
		return
	}
	log := s.CurrentLog()
	httpx.WriteJSON(r.Context(), w, http.StatusOK, schemaResponse{
		Attrs: log.Schema.Attrs(),
		Width: log.Width(),
	})
}
