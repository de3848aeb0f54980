package serve

import (
	"context"
	"errors"
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
//
// A build starts only for the log generation new requests solve (current,
// read under mu), so the cache never goes back to a generation older than
// the one it holds: a request still holding an older one gets
// errSuperseded and solves without the index.
type prepCache struct {
	mu   sync.Mutex
	cur  *core.PreparedLog
	wait chan struct{} // non-nil while a build is in flight
	err  error         // outcome of the last finished build

	current  func() *dataset.QueryLog // the server's current log; called with mu held
	buildCtx context.Context          // server base context: carries the injector
	backoff  *httpx.Backoff
	retries  int
	met      *metrics
}

// errSuperseded reports that a request's log generation is no longer the
// server's current one, so no prep is built for it.
var errSuperseded = errors.New("serve: log generation superseded; not indexing it")

func newPrepCache(current func() *dataset.QueryLog, buildCtx context.Context, backoff *httpx.Backoff, retries int, met *metrics) *prepCache {
	return &prepCache{current: current, buildCtx: buildCtx, backoff: backoff, retries: retries, met: met}
}

// usable reports whether p can serve solves of log right now.
func usable(p *core.PreparedLog, log *dataset.QueryLog) bool {
	return p != nil && p.Log() == log && !p.Stale()
}

// get returns a usable PreparedLog for log, joining or starting a
// single-flight rebuild when the cached one is missing, stale, or built for
// a previous log generation. A nil PreparedLog with a nil error never
// happens; when log is no longer current, or on persistent build failure,
// the error says why and callers fall back to index-less solving.
func (c *prepCache) get(ctx context.Context, log *dataset.QueryLog) (*core.PreparedLog, error) {
	for {
		c.mu.Lock()
		if usable(c.cur, log) {
			p := c.cur
			c.mu.Unlock()
			return p, nil
		}
		if c.wait == nil {
			if log != c.current() {
				c.mu.Unlock()
				return nil, errSuperseded
			}
			run := c.startLocked(log)
			c.mu.Unlock()
			return run()
		}
		ch := c.wait
		c.mu.Unlock()
		select {
		case <-ch:
			// Re-check: the finished build may target our log (use it),
			// another generation (start our own while ours is current), or
			// have failed (surface it).
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

// kick starts a background build for log unless the cached prep already
// serves it, a build is in flight, or log is no longer current. The build
// is marked in flight before kick returns, so however often readiness is
// polled, at most one build runs and no poll waits on it.
func (c *prepCache) kick(log *dataset.QueryLog) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if usable(c.cur, log) || c.wait != nil || log != c.current() {
		return
	}
	run := c.startLocked(log)
	go func() { _, _ = run() }()
}

// startLocked marks a build of log in flight and returns the function that
// runs it, installs the result and ends the flight. c.mu is held.
func (c *prepCache) startLocked(log *dataset.QueryLog) func() (*core.PreparedLog, error) {
	ch := make(chan struct{})
	c.wait = ch
	c.met.prepRebuilds.Add(1)
	// The outgoing generation seeds the incremental path: when the new log
	// provably extends it (the POST /log append path guarantees that), the
	// rebuild is a delta over only the appended queries.
	prev := c.cur
	return func() (*core.PreparedLog, error) {
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
}

// build runs one rebuild with retries: each attempt that fails — an injected
// build fault, or a log Touch racing the build so the fresh prep is born
// stale — backs off for base<<attempt plus seeded jitter and tries again.
// When prev's lineage covers log, each attempt is an O(append) delta build;
// otherwise a full re-index (PrepareLogFromContext decides per attempt).
func (c *prepCache) build(prev *core.PreparedLog, log *dataset.QueryLog) (*core.PreparedLog, error) {
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
