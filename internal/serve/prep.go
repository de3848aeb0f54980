package serve

import (
	"context"
	"sync"

	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/httpx"
)

// prepCache is the server's single-flight holder of the shared PreparedLog.
// Many requests discovering a missing or stale prep at once fold into one
// rebuild: the first caller builds (with bounded, jitter-backed retries
// against a log that keeps moving), everyone else waits on the in-flight
// build or on their own context, whichever ends first. Rebuilding outside
// any request context means a cancelled requester never poisons the build
// its siblings are waiting for.
type prepCache struct {
	mu   sync.Mutex
	cur  *core.PreparedLog
	wait chan struct{} // non-nil while a build is in flight
	err  error         // outcome of the last finished build

	buildCtx context.Context // server base context: carries the injector
	backoff  *httpx.Backoff
	retries  int
	met      *metrics
}

func newPrepCache(buildCtx context.Context, backoff *httpx.Backoff, retries int, met *metrics) *prepCache {
	return &prepCache{buildCtx: buildCtx, backoff: backoff, retries: retries, met: met}
}

// usable reports whether p can serve solves of log right now.
func usable(p *core.PreparedLog, log *dataset.QueryLog) bool {
	return p != nil && p.Log() == log && !p.Stale()
}

// get returns a usable PreparedLog for log, joining or starting a
// single-flight rebuild when the cached one is missing, stale, or built for
// a previous log generation. A nil PreparedLog with a nil error never
// happens; on persistent build failure the error reports the last attempt's
// cause and callers fall back to index-less solving.
func (c *prepCache) get(ctx context.Context, log *dataset.QueryLog) (*core.PreparedLog, error) {
	for {
		c.mu.Lock()
		if usable(c.cur, log) {
			p := c.cur
			c.mu.Unlock()
			return p, nil
		}
		if c.wait == nil {
			ch := make(chan struct{})
			c.wait = ch
			// The outgoing generation seeds the incremental path: when the new
			// log provably extends it (the POST /log append path guarantees
			// that), the rebuild is a delta over only the appended queries.
			prev := c.cur
			c.mu.Unlock()

			p, err := c.build(prev, log)

			c.mu.Lock()
			if err == nil {
				c.cur = p
			}
			c.err = err
			c.wait = nil
			c.mu.Unlock()
			close(ch)
			if err == nil {
				// Warm the estimator model in the background so the ladder's
				// shed-of-last-resort rung (DESIGN.md §16) is armed without any
				// request paying the mining pass. Single-flight per prep
				// generation: EstimatorModel folds concurrent builders.
				go func() { _, _ = p.EstimatorModel(c.buildCtx) }()
			}
			return p, err
		}
		ch := c.wait
		c.mu.Unlock()
		select {
		case <-ch:
			// Re-check: the finished build may target our log (use it), an
			// older generation (start our own), or have failed (surface it
			// below through another loop iteration's build).
			c.mu.Lock()
			if usable(c.cur, log) {
				p := c.cur
				c.mu.Unlock()
				return p, nil
			}
			if err := c.err; err != nil {
				c.mu.Unlock()
				return nil, err
			}
			c.mu.Unlock()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// build runs one rebuild with retries: each attempt that fails — an injected
// build fault, or a log Touch racing the build so the fresh prep is born
// stale — backs off for base<<attempt plus seeded jitter and tries again.
// When prev's lineage covers log, each attempt is an O(append) delta build;
// otherwise a full re-index (PrepareLogFromContext decides per attempt).
func (c *prepCache) build(prev *core.PreparedLog, log *dataset.QueryLog) (*core.PreparedLog, error) {
	c.met.prepRebuilds.Add(1)
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.met.prepRetries.Add(1)
			if err := c.backoff.Sleep(c.buildCtx, attempt); err != nil {
				return nil, err
			}
		}
		p, err := core.PrepareLogFromContext(c.buildCtx, prev, log)
		if err != nil {
			lastErr = err
			continue
		}
		if p.Stale() {
			lastErr = core.ErrStalePrep
			continue
		}
		if p.Delta() {
			c.met.prepDeltas.Add(1)
		}
		return p, nil
	}
	return nil, lastErr
}

// invalidate drops a cached prep built for an older log generation so the
// next get starts fresh. Harmless if another generation already replaced it.
func (c *prepCache) invalidate(old *core.PreparedLog) {
	c.mu.Lock()
	if c.cur == old {
		c.cur = nil
	}
	c.mu.Unlock()
}

// snapshot returns the cached prep without building, for readiness checks.
func (c *prepCache) snapshot() *core.PreparedLog {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}
