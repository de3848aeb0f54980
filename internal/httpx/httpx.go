// Package httpx is the HTTP plumbing internal/serve and internal/shard
// share: the tracing middleware and its per-request facts, the panic
// boundary, the trace-stamped JSON writer and error body, the two-stage
// admission gate, the timeout clamp and seeded-jitter backoff (DESIGN.md
// §10, §13). Nothing here knows which server calls it.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"standout/internal/obsv"
)

// Info accumulates per-request facts the handlers learn (which algorithm
// answered, whether admission shed, the error served) for the flight record.
// The single handler goroutine writes it; the middleware reads it after the
// handler returns.
type Info struct {
	Algo     string
	Solver   string
	Degraded bool
	// Partial marks an answer computed over a reduced shard set.
	Partial  bool
	Shed     bool
	Panicked bool
	Err      string
}

// infoKey carries the *Info in a context; zero-size for free lookups.
type infoKey struct{}

// InfoFrom returns the request's Info, or a throwaway on an untraced context
// so call sites never nil-check.
func InfoFrom(ctx context.Context) *Info {
	if i, ok := ctx.Value(infoKey{}).(*Info); ok {
		return i
	}
	return &Info{}
}

// Middleware wraps a server's routes in request-scoped tracing (DESIGN.md
// §13) and a panic boundary.
type Middleware struct {
	// Flight receives one record per request; nil records nothing.
	Flight *obsv.Flight
	// Slow marks requests at or above it as slow and logs them at Warn
	// through Logger; ≤ 0 disables the log.
	Slow   time.Duration
	Logger *slog.Logger
	// OnPanic counts each panic the boundary recovers.
	OnPanic func()
}

// Route wraps h for route: the tracing middleware outermost, so a panic the
// boundary converts to a 500 still leaves a flight record with its real
// status.
//
// Every request gets a W3C trace context: an inbound `traceparent` header
// is honored (the request joins the caller's trace), otherwise a fresh trace
// ID is minted. The IDs ride the request context into the solver stack
// (obsv.WithIDs), the trace collector is stamped with them, and the response
// echoes them in `traceparent` and `X-Request-Id` headers plus the body's
// `trace_id` (WriteJSON), so a caller holding an error response can go
// straight to `GET /debug/requests/{id}` and the latency-histogram
// exemplars.
func (m *Middleware) Route(route string, h http.HandlerFunc) http.HandlerFunc {
	return m.traced(route, m.recovered(h))
}

func (m *Middleware) traced(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tid, _, err := obsv.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tid = obsv.NewTraceID()
		}
		span := obsv.NewSpanID()

		tr := obsv.NewTrace()
		tr.SetTraceID(tid)
		info := &Info{}
		ctx := obsv.WithIDs(r.Context(), tid, span)
		ctx = obsv.WithTrace(ctx, tr)
		ctx = context.WithValue(ctx, infoKey{}, info)

		w.Header().Set("X-Request-Id", tid.String())
		w.Header().Set("traceparent", obsv.FormatTraceparent(tid, span))

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		summary := tr.Snapshot()
		rec := &obsv.Record{
			TraceID:   tid.String(),
			Route:     route,
			Status:    sw.status,
			Start:     start,
			LatencyMS: float64(elapsed) / float64(time.Millisecond),
			Algo:      info.Algo,
			Solver:    info.Solver,
			Degraded:  info.Degraded,
			Partial:   info.Partial,
			Shed:      info.Shed || sw.status == http.StatusTooManyRequests,
			Panic:     info.Panicked,
			Fault:     tr.Counter("fault.fired") > 0,
			Slow:      m.Slow > 0 && elapsed >= m.Slow,
			Error:     info.Err,
			Trace:     &summary,
		}
		m.Flight.Record(rec)
		if rec.Slow {
			m.Logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
				slog.String("trace_id", rec.TraceID),
				slog.String("route", route),
				slog.Int("status", rec.Status),
				slog.Float64("latency_ms", rec.LatencyMS),
				slog.String("algo", rec.Algo),
				slog.String("solver", rec.Solver),
				slog.Bool("degraded", rec.Degraded),
				slog.Bool("partial", rec.Partial),
				slog.Bool("fault", rec.Fault))
		}
	}
}

// recovered is the outermost panic boundary: anything that escapes a handler
// becomes a 500 instead of killing the connection and, under http.Server's
// default behavior, leaving a half-dead process.
func (m *Middleware) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				m.OnPanic()
				msg := fmt.Sprintf("panic: %v", rec)
				info := InfoFrom(r.Context())
				info.Panicked = true
				info.Err = msg
				WriteJSON(r.Context(), w, http.StatusInternalServerError, &ErrorBody{Error: msg, Panic: true})
			}
		}()
		h(w, r)
	}
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Stamp is embedded first in every response body that echoes the request's
// trace ID, so bodies stay correlatable when a proxy strips response
// headers. WriteJSON fills it.
type Stamp struct {
	TraceID string `json:"trace_id,omitempty"`
}

func (s *Stamp) stamp(id string) { s.TraceID = id }

// ErrorBody is the JSON body of every error response.
type ErrorBody struct {
	Stamp
	Error string `json:"error"`
	Panic bool   `json:"panic,omitempty"`
	// RetryAfterMS accompanies 429 shed responses.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
}

// WriteJSON writes v as the response body. A body embedding Stamp, passed by
// pointer, carries the request's trace ID. As the choke point every error
// body passes through, it also notes an *ErrorBody's message for the flight
// record unless the handler noted one first, so ad-hoc 4xx writes need no
// extra bookkeeping.
func WriteJSON(ctx context.Context, w http.ResponseWriter, status int, v any) {
	if e, ok := v.(*ErrorBody); ok {
		if info := InfoFrom(ctx); info.Err == "" {
			info.Err = e.Error
		}
	}
	if s, ok := v.(interface{ stamp(string) }); ok {
		if id := obsv.TraceIDStringFromContext(ctx); id != "" {
			s.stamp(id)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an ErrorBody carrying msg.
func WriteError(ctx context.Context, w http.ResponseWriter, status int, msg string) {
	WriteJSON(ctx, w, status, &ErrorBody{Error: msg})
}

// Allow reports whether r uses method, answering 405 with an Allow header
// when it does not.
func Allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteError(r.Context(), w, http.StatusMethodNotAllowed, method+" only")
	return false
}

// Decode reads a JSON request body of at most limit bytes into v, answering
// 400 when it cannot or when anything but white space follows the value.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		WriteError(r.Context(), w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// Healthz is liveness: the process is up and serving HTTP.
func Healthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(r.Context(), w, http.StatusOK, map[string]string{"status": "ok"})
}

// Timeout clamps a request's timeout wish of ms milliseconds into (0, max],
// with def for a wish ≤ 0.
func Timeout(ms int, def, max time.Duration) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if d > max {
		d = max
	}
	return d
}
