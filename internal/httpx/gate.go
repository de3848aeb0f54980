package httpx

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"standout/internal/fault"
	"standout/internal/obsv"
)

// ErrShed reports that the admission queue was full: the request is rejected
// immediately (429 + Retry-After) instead of queueing into a latency cliff.
var ErrShed = errors.New("httpx: admission queue full, request shed")

// Gate is a bounded two-stage admission gate (DESIGN.md §10): up to
// `concurrent` requests hold a slot at once, up to maxQueue more wait for
// one, and everything beyond that is shed on arrival. Shedding at the gate
// keeps the queue — and therefore queueing latency — bounded no matter the
// offered load, which is the difference between a slow server and a dead
// one.
type Gate struct {
	slots    chan struct{}
	waiting  atomic.Int64
	maxQueue int64
	inflight *obsv.Gauge
	queued   *obsv.Gauge
}

// NewGate builds a gate that reports its slot holders in inflight and its
// waiters in queued.
func NewGate(concurrent, maxQueue int, inflight, queued *obsv.Gauge) *Gate {
	return &Gate{
		slots:    make(chan struct{}, concurrent),
		maxQueue: int64(maxQueue),
		inflight: inflight,
		queued:   queued,
	}
}

// Admit takes a slot, waiting in the bounded queue if none is free. It
// returns ErrShed when the queue is full, ctx.Err() when the caller gives up
// first, and an injected error at the "serve.admit" fault site. Every nil
// return must be paired with Release.
func (g *Gate) Admit(ctx context.Context) error {
	if err := fault.Hit(ctx, "serve.admit"); err != nil {
		return err
	}
	select {
	case g.slots <- struct{}{}:
		g.inflight.Set(float64(len(g.slots)))
		return nil
	default:
	}
	if n := g.waiting.Add(1); n > g.maxQueue {
		g.waiting.Add(-1)
		return ErrShed
	}
	g.queued.Set(float64(g.waiting.Load()))
	defer func() {
		g.queued.Set(float64(g.waiting.Add(-1)))
	}()
	select {
	case g.slots <- struct{}{}:
		g.inflight.Set(float64(len(g.slots)))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Admit.
func (g *Gate) Release() {
	<-g.slots
	g.inflight.Set(float64(len(g.slots)))
}

// Depth reports the current number of queued requests.
func (g *Gate) Depth() int64 { return g.waiting.Load() }

// WriteAdmitError answers a request Admit refused: a full queue is a 429
// with a Retry-After hint, counted in shed; anything else a 503, counted in
// failures.
func WriteAdmitError(ctx context.Context, w http.ResponseWriter, err error, shed, failures *obsv.Counter) {
	if errors.Is(err, ErrShed) {
		shed.Add(1)
		InfoFrom(ctx).Shed = true
		w.Header().Set("Retry-After", "1")
		WriteJSON(ctx, w, http.StatusTooManyRequests, &ErrorBody{
			Error: "overloaded: admission queue full", RetryAfterMS: 1000,
		})
		return
	}
	failures.Add(1)
	WriteError(ctx, w, http.StatusServiceUnavailable, err.Error())
}

// Backoff is seeded-jitter exponential backoff, safe for concurrent use:
// attempt k waits base<<(k-1) plus up to 100% jitter, so retrying herds
// desynchronize deterministically under a fixed seed.
type Backoff struct {
	base time.Duration
	mu   sync.Mutex
	rng  *rand.Rand
}

// NewBackoff returns a Backoff of the given base delay and jitter seed.
func NewBackoff(base time.Duration, seed int64) *Backoff {
	return &Backoff{base: base, rng: rand.New(rand.NewSource(seed))}
}

// Sleep blocks for attempt's backoff (attempt ≥ 1) or until ctx is done,
// returning ctx.Err() in the latter case.
func (b *Backoff) Sleep(ctx context.Context, attempt int) error {
	base := b.base << (attempt - 1)
	b.mu.Lock()
	d := base + time.Duration(b.rng.Int63n(int64(base)+1))
	b.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
