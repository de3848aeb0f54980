package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/obsv"
)

// Mode selects which additive counting oracle a Score call runs.
type Mode int

const (
	// Subset counts, for each candidate compression v, the total weight of
	// shard queries q with q ⊆ v — the SOC-CB-QL objective itself.
	Subset Mode = iota
	// Superset counts queries q with q ⊇ v — the co-occurrence score of the
	// cumulative greedy; on singleton candidates it is the attribute
	// frequency.
	Superset
)

func (m Mode) String() string {
	if m == Subset {
		return "subset"
	}
	return "superset"
}

// Backend is one shard of the query log viewed as an additive counting
// oracle. Implementations must be safe for concurrent Score calls — the
// coordinator hedges, so two identical calls can run at once.
type Backend interface {
	// ID names the shard in health reports, metrics and trace events.
	ID() string
	// Score returns one weighted count per candidate, aligned with cands.
	Score(ctx context.Context, mode Mode, cands []bitvec.Vector) ([]int, error)
}

// Local is an in-process shard: a partition of the query log scored directly,
// through a shared PreparedLog index when one could be built.
type Local struct {
	id   string
	log  *dataset.QueryLog
	prep *core.PreparedLog // nil → plain scans (bit-identical)
}

// NewLocal builds an in-process shard over its partition of the log. The
// index build is best-effort: on failure the shard serves scans.
func NewLocal(ctx context.Context, id string, log *dataset.QueryLog) (*Local, error) {
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("shard %s: %w", id, err)
	}
	l := &Local{id: id, log: log}
	if p, err := core.PrepareLogContext(ctx, log); err == nil {
		l.prep = p
	}
	return l, nil
}

// ID implements Backend.
func (l *Local) ID() string { return l.id }

// Log returns the shard's partition (read-only), for tests and stats.
func (l *Local) Log() *dataset.QueryLog { return l.log }

// Score implements Backend.
func (l *Local) Score(ctx context.Context, mode Mode, cands []bitvec.Vector) ([]int, error) {
	if l.prep != nil && !l.prep.Stale() {
		ctx = core.WithPrepared(ctx, l.prep)
	}
	switch mode {
	case Subset:
		return core.CountSatisfied(ctx, l.log, cands)
	case Superset:
		return core.CountContaining(ctx, l.log, cands)
	}
	return nil, fmt.Errorf("shard %s: unknown mode %d", l.id, int(mode))
}

// HTTP is a remote shard: a socserve instance holding one partition of the
// log, spoken to over the internal/serve JSON protocol (POST /score). The
// request's trace context propagates in the traceparent header with a fresh
// span per outbound call, so the shard's own flight recorder joins the
// coordinator's trace.
type HTTP struct {
	id     string
	base   string
	client *http.Client
}

// NewHTTP builds a remote-shard backend for a base URL like
// "http://10.0.0.7:8080". A nil client uses http.DefaultClient; per-call
// deadlines come from the Score context, not the client.
func NewHTTP(id, baseURL string, client *http.Client) *HTTP {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTP{id: id, base: baseURL, client: client}
}

// ID implements Backend.
func (h *HTTP) ID() string { return h.id }

// httpScoreRequest mirrors internal/serve's scoreRequest wire form.
type httpScoreRequest struct {
	Mode       string   `json:"mode"`
	Candidates []string `json:"candidates"`
}

type httpScoreResponse struct {
	Counts []int  `json:"counts"`
	Width  int    `json:"width"`
	Error  string `json:"error"`
}

type httpSchemaResponse struct {
	Attrs []string `json:"attrs"`
	Width int      `json:"width"`
	Error string   `json:"error"`
}

// Score implements Backend.
func (h *HTTP) Score(ctx context.Context, mode Mode, cands []bitvec.Vector) ([]int, error) {
	if err := fault.Hit(ctx, "shard.dial"); err != nil {
		return nil, fmt.Errorf("shard %s: dial: %w", h.id, err)
	}
	specs := make([]string, len(cands))
	for i, c := range cands {
		specs[i] = c.String()
	}
	body, err := json.Marshal(httpScoreRequest{Mode: mode.String(), Candidates: specs})
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", h.id, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/score", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", h.id, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tid, _, ok := obsv.IDsFromContext(ctx); ok {
		req.Header.Set("traceparent", obsv.FormatTraceparent(tid, obsv.NewSpanID()))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", h.id, err)
	}
	defer resp.Body.Close()
	var sr httpScoreResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("shard %s: status %d: %w", h.id, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := sr.Error
		if msg == "" {
			msg = http.StatusText(resp.StatusCode)
		}
		return nil, fmt.Errorf("shard %s: status %d: %s", h.id, resp.StatusCode, msg)
	}
	if len(sr.Counts) != len(cands) {
		return nil, fmt.Errorf("shard %s: %d counts for %d candidates", h.id, len(sr.Counts), len(cands))
	}
	for i, c := range sr.Counts {
		if c < 0 {
			return nil, fmt.Errorf("shard %s: negative count %d at %d", h.id, c, i)
		}
	}
	return sr.Counts, nil
}

// Schema fetches the remote shard's serving schema (GET /schema) — how a
// coordinator bootstraps without holding any workload of its own.
func (h *HTTP) Schema(ctx context.Context) (*dataset.Schema, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/schema", nil)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", h.id, err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", h.id, err)
	}
	defer resp.Body.Close()
	var sr httpSchemaResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("shard %s: status %d: %w", h.id, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %s: schema: status %d: %s", h.id, resp.StatusCode, sr.Error)
	}
	schema, err := dataset.NewSchema(sr.Attrs)
	if err != nil {
		return nil, fmt.Errorf("shard %s: schema: %w", h.id, err)
	}
	return schema, nil
}
