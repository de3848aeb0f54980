package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"standout/internal/bitvec"
	"standout/internal/obsv"
	"standout/internal/shard"
)

// span is one timed call across a layer boundary, recorded from outside the
// program: client requests, server handlers, shard.Backend calls and the
// coordinator's HTTP round trips. Op is the sequence index of the operation
// the span belongs to; Parent is 0 for a client span (the root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // candidates of a Backend call
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// layer is the span name's first word: client, serve, shard, backend, http.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, ' '); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanHeader carries the caller's span ID to the server-side middleware.
// The program ignores it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// tracer keeps spans in memory. A nil *tracer is the untraced run: every
// hook returns the program's own handler, backend or client unchanged.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }
func (t *tracer) now() int64    { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap times a server's handler on requests of an operation. The span's
// parent is the caller's span from spanHeader; handlers further in see
// this span in their context.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := opOf(r.Header.Get("traceparent"))
		if op < 0 { // readiness polls belong to no operation
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Op: op, Name: layer + " " + r.URL.Path, Start: t.now()}
		s.Parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 16, 64)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
		s.End = t.now()
		t.add(s)
	})
}

// backend wraps a shard.Backend so every Score call is a span.
func (t *tracer) backend(b shard.Backend) shard.Backend {
	if t == nil {
		return b
	}
	return &timedBackend{Backend: b, t: t}
}

type timedBackend struct {
	shard.Backend
	t *tracer
}

func (b *timedBackend) Score(ctx context.Context, mode shard.Mode, cands []bitvec.Vector) ([]int, error) {
	s := span{ID: b.t.newID(), Op: -1, Name: "backend " + mode.String(), Start: b.t.now(), N: len(cands)}
	s.Parent, _ = ctx.Value(spanKey{}).(uint64)
	if tid, _, ok := obsv.IDsFromContext(ctx); ok {
		s.Op = opOfTrace(tid)
	}
	counts, err := b.Backend.Score(context.WithValue(ctx, spanKey{}, s.ID), mode, cands)
	s.End = b.t.now()
	b.t.add(s)
	return counts, err
}

// client returns the HTTP client the coordinator's shard backends use: the
// default transport behind a timing RoundTripper. Untraced runs pass nil,
// which shard.NewHTTP resolves to http.DefaultClient.
func (t *tracer) client() *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{Transport: &timedTransport{next: http.DefaultTransport, t: t}}
}

// timedTransport times a round trip up to the caller closing the response
// body, and forwards its span ID to the shard's middleware.
type timedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{ID: tt.t.newID(), Op: opOf(req.Header.Get("traceparent")), Name: "http " + req.URL.Path, Start: tt.t.now()}
	s.Parent, _ = req.Context().Value(spanKey{}).(uint64)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 16))
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.End = tt.t.now()
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, done: func() {
		s.End = tt.t.now()
		tt.t.add(s)
	}}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.done)
	return err
}

// selfTimes returns each layer's self time in ms: a span's duration minus
// the part of it its children cover, summed over the layer's spans.
func selfTimes(spans []span) map[string]float64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.layer()] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// nestingErrors lists spans whose parent is missing or belongs to another
// operation.
func nestingErrors(spans []span) []string {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var errs []string
	for _, s := range spans {
		if s.Parent == 0 {
			if s.layer() != "client" {
				errs = append(errs, fmt.Sprintf("span %d %q has no parent", s.ID, s.Name))
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			errs = append(errs, fmt.Sprintf("span %d %q: parent %d missing", s.ID, s.Name, s.Parent))
		case p.Op != s.Op:
			errs = append(errs, fmt.Sprintf("span %d %q: op %d, parent op %d", s.ID, s.Name, s.Op, p.Op))
		}
	}
	return errs
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
