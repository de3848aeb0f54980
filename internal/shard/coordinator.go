package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/estimate"
	"standout/internal/fault"
	"standout/internal/httpx"
	"standout/internal/obsv"
)

// Config tunes a Coordinator (and its HTTP Server). The zero value of every
// field selects a sensible default; Backends and Schema are required.
type Config struct {
	// Backends are the shards, one per query-log partition. Order fixes the
	// shard ids reported by readyz and the responded/missing sets.
	Backends []Backend
	// Schema is the serving schema every shard partition shares; the
	// coordinator parses tuples and renders kept-attribute names against it.
	// socserve -shards bootstraps it from a backend's GET /schema.
	Schema *dataset.Schema

	// ShardTimeout clamps each scatter attempt's deadline; the effective
	// per-attempt deadline is min(request deadline, ShardTimeout). Default 1s.
	ShardTimeout time.Duration
	// Retries bounds scatter attempts beyond a call's first; default 2.
	Retries int
	// RetryBackoff is the base backoff between attempts (doubled per attempt,
	// plus up to 100% seeded jitter); default 2ms.
	RetryBackoff time.Duration
	// HedgeAfter is the hedge delay before a shard has latency history;
	// default 25ms. DisableHedge turns hedging off entirely.
	HedgeAfter time.Duration
	// HedgeQuantile is the per-shard latency quantile after which a second
	// identical request is launched (first response wins, the loser is
	// cancelled); default 0.95.
	HedgeQuantile float64
	DisableHedge  bool
	// BreakerFailures is the consecutive-failure threshold that opens a
	// shard's circuit; default 5. BreakerCooloff is the open → half-open
	// delay; default 2s.
	BreakerFailures int
	BreakerCooloff  time.Duration

	// Serving knobs, used by the HTTP Server (NewServer).
	MaxConcurrent  int
	MaxQueue       int
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ExactBudget is the minimum remaining deadline for which the brute rung
	// is attempted; below it the request degrades to greedy. Default 250ms.
	ExactBudget time.Duration
	// GreedyBudget is the minimum remaining deadline for which the greedy
	// rungs (greedy/consumeattr/consumeattrcumul, and brute already degraded
	// to greedy) are attempted; below it the request degrades to the
	// two-round estimate rung (DESIGN.md §16), whose response carries
	// estimated:true with a certified interval. Default 25ms.
	GreedyBudget time.Duration

	// Seed drives backoff jitter; default 1.
	Seed int64
	// Registry receives the shard metrics; default obsv.Default.
	Registry *obsv.Registry
	// Injector attaches deterministic fault injection to every request.
	Injector *fault.Injector
	// Flight-recorder knobs, mirroring internal/serve; requests at or above
	// SlowThreshold are also logged at Warn through slog.Default.
	FlightSize    int
	SlowThreshold time.Duration
	SampleEvery   int
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 2 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
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
	if c.GreedyBudget <= 0 {
		c.GreedyBudget = 25 * time.Millisecond
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
	return c
}

// ErrNoShards reports that no shard could serve any part of the request —
// the only shard-loss shape that surfaces as an error (503) instead of a
// partial result.
var ErrNoShards = errors.New("shard: no shards available")

// shardState is one backend plus its robustness state.
type shardState struct {
	id    string
	be    Backend
	br    *breaker
	lat   *latencyWindow
	gauge *obsv.Gauge
}

func (s *shardState) updateGauge() {
	st, _, _, _, _ := s.br.snapshot()
	s.gauge.Set(float64(st))
}

// Coordinator scatter-gathers solves across shard backends, merging additive
// counts bit-identically to the unsharded solvers.
type Coordinator struct {
	cfg     Config
	shards  []*shardState
	met     *metrics
	backoff *httpx.Backoff
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("shard: Config.Backends is required")
	}
	if cfg.Schema == nil {
		return nil, errors.New("shard: Config.Schema is required")
	}
	c := &Coordinator{
		cfg:     cfg,
		met:     newMetrics(cfg.Registry),
		backoff: httpx.NewBackoff(cfg.RetryBackoff, cfg.Seed),
	}
	seen := map[string]bool{}
	for _, be := range cfg.Backends {
		id := be.ID()
		if id == "" || seen[id] {
			return nil, fmt.Errorf("shard: backend id %q is empty or duplicated", id)
		}
		seen[id] = true
		s := &shardState{
			id:    id,
			be:    be,
			br:    newBreaker(cfg.BreakerFailures, cfg.BreakerCooloff),
			lat:   &latencyWindow{},
			gauge: cfg.Registry.Gauge(gaugeName(id), "Circuit state of shard "+id+" (0 closed, 1 half-open, 2 open)."),
		}
		s.updateGauge()
		c.shards = append(c.shards, s)
	}
	return c, nil
}

// Shards returns the shard ids in backend order.
func (c *Coordinator) Shards() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.id
	}
	return out
}

// ShardHealth is one shard's health as the coordinator's readyz reports it.
type ShardHealth struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	LastError string `json:"last_error,omitempty"`
	// Calls counts attempts admitted to the backend (hits); Failures the
	// attempts that failed and Trips the circuit openings (fires).
	Calls    uint64 `json:"calls"`
	Failures uint64 `json:"failures"`
	Trips    uint64 `json:"trips"`
}

// Health snapshots every shard's circuit state, in backend order.
func (c *Coordinator) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.shards))
	for i, s := range c.shards {
		st, lastErr, calls, failures, trips := s.br.snapshot()
		out[i] = ShardHealth{
			ID: s.id, State: st.String(), LastError: lastErr,
			Calls: calls, Failures: failures, Trips: trips,
		}
	}
	return out
}

// coordinatorAlgos maps each algo the coordinator can run distributed to
// the core solver it runs over the shards' summed counts (core.SolveCounter);
// "estimate" maps to nil, the coordinator's own two-round rung. The solvers
// that need full query enumeration (mfi, ilp, consumequeries — the last is
// tie-broken by log order, which partitioning destroys) are deliberately
// absent: shards only ever answer additive counting calls.
var coordinatorAlgos = map[string]core.Solver{
	"brute":            core.BruteForce{},
	"greedy":           core.ConsumeAttrCumul{},
	"consumeattr":      core.ConsumeAttr{},
	"consumeattrcumul": core.ConsumeAttrCumul{},
	"estimate":         nil,
}

// AlgoNames lists the accepted algo values, sorted.
func AlgoNames() []string {
	out := make([]string, 0, len(coordinatorAlgos))
	for n := range coordinatorAlgos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkAlgo validates a request's algo against coordinatorAlgos and its
// budget.
func checkAlgo(algo string, m int) error {
	if _, ok := coordinatorAlgos[algo]; !ok {
		return fmt.Errorf("unknown algo %q (have %v)", algo, AlgoNames())
	}
	if m < 0 {
		return fmt.Errorf("negative budget m=%d", m)
	}
	return nil
}

// Result is one coordinated solve.
type Result struct {
	Solution core.Solution
	// Solver names the algorithm that answered; Degraded reports that the
	// budget ladder fell back from the requested one (brute → greedy).
	Solver   string
	Degraded bool
	// Partial reports that at least one shard was excluded: the Solution is
	// the exact answer over the Responded subset — a lower bound on (never
	// above) the full answer. Optimal then refers to that sub-problem.
	Partial   bool
	Responded []string
	Missing   []string
	// Restarts counts mid-request shard losses that forced the solve to rerun
	// over the surviving set (count consistency; DESIGN.md §15).
	Restarts int
}

// shardLoss aborts a solve epoch when shards fail past the retry/hedge
// budget: the coordinator removes them and reruns over the survivors, because
// counts merged across different shard subsets would be additive garbage.
type shardLoss struct {
	lost  []*shardState
	cause error
}

func (e *shardLoss) Error() string {
	return fmt.Sprintf("shard: %d shard(s) lost: %v", len(e.lost), e.cause)
}

// Solve runs one coordinated solve. The answer is bit-identical to the
// corresponding unsharded core solver over the union of the responding
// shards' partitions; when every shard responds that union is the whole log.
func (c *Coordinator) Solve(ctx context.Context, tuple bitvec.Vector, m int, algo string) (Result, error) {
	if algo == "" {
		algo = "greedy"
	}
	if err := checkAlgo(algo, m); err != nil {
		return Result{}, fmt.Errorf("shard: %w", err)
	}
	if tuple.Width() != c.cfg.Schema.Width() {
		return Result{}, fmt.Errorf("shard: tuple width %d, schema width %d", tuple.Width(), c.cfg.Schema.Width())
	}

	// Plan over the shards whose circuit admits traffic right now: open
	// circuits inside their cooloff are excluded up front (their loss is
	// already known), which saves a doomed first epoch.
	var live []*shardState
	for _, s := range c.shards {
		if s.br.available() {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return Result{}, ErrNoShards
	}

	res := Result{}
	for {
		// The budget ladder re-evaluates per epoch: a restart may have eaten
		// the budget that justified brute. Below ExactBudget brute degrades
		// to greedy; below GreedyBudget every rung degrades to the two-round
		// estimate — the cheapest answer the coordinator can still certify.
		used, degraded := algo, false
		if dl, ok := ctx.Deadline(); ok {
			remaining := time.Until(dl)
			if used == "brute" && remaining < c.cfg.ExactBudget {
				used, degraded = "greedy", true
			}
			if used != "estimate" && remaining < c.cfg.GreedyBudget {
				used, degraded = "estimate", true
			}
		}
		sol, err := c.solveOnce(ctx, tuple, m, used, live)
		if err == nil {
			res.Solution = sol
			res.Solver = used
			res.Degraded = degraded
			res.Partial = len(live) < len(c.shards)
			res.Responded = ids(live)
			res.Missing = missingIDs(c.shards, live)
			if tr := obsv.FromContext(ctx); tr != nil {
				tr.Count("shard.responded", int64(len(live)))
				if res.Partial {
					tr.Count("shard.partial", 1)
				}
			}
			return res, nil
		}
		var loss *shardLoss
		if !errors.As(err, &loss) {
			return Result{}, err
		}
		live = subtract(live, loss.lost)
		if len(live) == 0 {
			if ctx.Err() != nil {
				return Result{}, ctx.Err()
			}
			return Result{}, fmt.Errorf("%w: last error: %v", ErrNoShards, loss.cause)
		}
		res.Restarts++
		c.met.restarts.Add(1)
		if tr := obsv.FromContext(ctx); tr != nil {
			tr.Count("shard.restarts", 1)
		}
	}
}

func ids(shards []*shardState) []string {
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s.id
	}
	return out
}

func missingIDs(all, live []*shardState) []string {
	in := map[*shardState]bool{}
	for _, s := range live {
		in[s] = true
	}
	var out []string
	for _, s := range all {
		if !in[s] {
			out = append(out, s.id)
		}
	}
	return out
}

func subtract(live, lost []*shardState) []*shardState {
	drop := map[*shardState]bool{}
	for _, s := range lost {
		drop[s] = true
	}
	var out []*shardState
	for _, s := range live {
		if !drop[s] {
			out = append(out, s)
		}
	}
	return out
}

// solveOnce runs one epoch of the requested algorithm against a fixed shard
// set: the core solver's own body over a counter that sums the set's
// replies, so the answer is bit-identical to the unsharded solve. Any shard
// failing a call past its retry/hedge budget aborts the epoch with
// *shardLoss, which reaches Solve through core's error wrapping.
func (c *Coordinator) solveOnce(ctx context.Context, tuple bitvec.Vector, m int, algo string, live []*shardState) (core.Solution, error) {
	f := fanout{c: c, live: live}
	if s := coordinatorAlgos[algo]; s != nil {
		return core.SolveCounter(ctx, s, f, tuple, m)
	}
	return c.estimateOnce(ctx, f, tuple, m)
}

// fanout is the coordinator's core.Counter for one solve epoch: each call
// goes to every live shard and the replies are summed, exact because both
// counts are additive over the partitioned queries (DESIGN.md §15).
type fanout struct {
	c    *Coordinator
	live []*shardState
}

// Satisfied implements core.Counter with one Subset scatter.
func (f fanout) Satisfied(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	return f.c.scatter(ctx, f.live, Subset, deepCopy(cands))
}

// Containing implements core.Counter with one Superset scatter.
func (f fanout) Containing(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	return f.c.scatter(ctx, f.live, Superset, deepCopy(cands))
}

// deepCopy copies cands into storage of their own: the solver refills its
// candidate vectors once a call returns, while an abandoned hedge or retry
// of that call may still be encoding them.
func deepCopy(cands []bitvec.Vector) []bitvec.Vector {
	out := make([]bitvec.Vector, len(cands))
	for i, v := range cands {
		out[i] = v.Clone()
	}
	return out
}

// estimateOnce is the coordinator's shed-of-last-resort rung (DESIGN.md
// §16): exactly two scatter rounds regardless of the budget m, then a local
// LP. Round one gathers the total weight (superset count of the empty
// vector) and every attribute's full-log frequency; selection is then the
// ConsumeAttr rule on those additive frequencies — bit-identical to
// core.Estimate's Keep on an unsharded model, since frequencies sum across
// shards. Round two gathers the pairwise supports of the heaviest dropped
// attributes, and estimate.NewModel + Estimate turn them into a certified
// interval. The interval is generally looser than the unsharded estimator's
// (no mining-completeness certificate, pairs only) but is sound against the
// union of the live shards' partitions.
func (c *Coordinator) estimateOnce(ctx context.Context, f fanout, tuple bitvec.Vector, m int) (core.Solution, error) {
	width, ones := tuple.Width(), tuple.Ones()
	if m >= len(ones) {
		// The whole tuple fits the budget: like every core solver, one
		// subset count of it is the exact optimum.
		counts, err := f.Satisfied(ctx, []bitvec.Vector{tuple})
		if err != nil {
			return core.Solution{}, err
		}
		return core.Solution{Kept: tuple.Clone(), Satisfied: counts[0], Optimal: true}, nil
	}
	cands := make([]bitvec.Vector, 0, width+1)
	cands = append(cands, bitvec.New(width)) // ⊆ every query: total weight
	for j := 0; j < width; j++ {
		cands = append(cands, bitvec.FromIndices(width, j))
	}
	counts, err := f.Containing(ctx, cands)
	if err != nil {
		return core.Solution{}, err
	}
	total, sing := counts[0], counts[1:]

	sorted := append([]int(nil), ones...)
	sort.SliceStable(sorted, func(a, b int) bool { return sing[sorted[a]] > sing[sorted[b]] })
	kept := bitvec.FromIndices(width, sorted[:m]...)

	// The heaviest dropped attributes get joint treatment: their pairwise
	// supports are one more scatter of C(k,2) superset counts.
	var dropped []int
	for j := 0; j < width; j++ {
		if !kept.Get(j) && sing[j] > 0 {
			dropped = append(dropped, j)
		}
	}
	sort.SliceStable(dropped, func(a, b int) bool { return sing[dropped[a]] > sing[dropped[b]] })
	if len(dropped) > estimate.DefaultMaxAtomAttrs {
		dropped = dropped[:estimate.DefaultMaxAtomAttrs]
	}
	var pairs []bitvec.Vector
	for i := 0; i < len(dropped); i++ {
		for j := i + 1; j < len(dropped); j++ {
			pairs = append(pairs, bitvec.FromIndices(width, dropped[i], dropped[j]))
		}
	}
	var known []estimate.ItemsetSupport
	if len(pairs) > 0 {
		pcounts, err := f.Containing(ctx, pairs)
		if err != nil {
			return core.Solution{}, err
		}
		known = make([]estimate.ItemsetSupport, len(pairs))
		for i, p := range pairs {
			known[i] = estimate.ItemsetSupport{Items: p, Support: pcounts[i]}
		}
	}

	model, err := estimate.NewModel(width, total, sing, known, estimate.Options{})
	if err != nil {
		return core.Solution{}, err
	}
	iv, err := model.Estimate(ctx, kept)
	if err != nil {
		return core.Solution{}, err
	}
	return core.Solution{
		Kept:      kept,
		Satisfied: iv.Point,
		Estimated: true,
		EstLo:     iv.Lo,
		EstHi:     iv.Hi,
	}, nil
}

// scatter fans one counting call across the live shards and sums the
// per-shard results. Shards failing past their retry/hedge budget abort the
// round with *shardLoss (unless every shard failed, which is terminal).
func (c *Coordinator) scatter(ctx context.Context, live []*shardState, mode Mode, cands []bitvec.Vector) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type sres struct {
		counts []int
		err    error
	}
	results := make([]sres, len(live))
	var wg sync.WaitGroup
	for i, s := range live {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			counts, err := c.callShard(ctx, s, mode, cands)
			results[i] = sres{counts, err}
		}(i, s)
	}
	wg.Wait()

	sums := make([]int, len(cands))
	var lost []*shardState
	var lastErr error
	for i, r := range results {
		if r.err != nil {
			lost = append(lost, live[i])
			lastErr = r.err
			continue
		}
		for ci, n := range r.counts {
			sums[ci] += n
		}
	}
	if len(lost) == 0 {
		return sums, nil
	}
	if tr := obsv.FromContext(ctx); tr != nil {
		for _, s := range lost {
			tr.Event("shard.lost."+s.id, 1)
		}
	}
	if len(lost) == len(live) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return nil, &shardLoss{lost: lost, cause: lastErr}
}

// callShard runs one scatter call against one shard under the full
// robustness stack: circuit breaker, per-attempt deadline clamp, bounded
// retries with seeded-jitter backoff, and a hedge per attempt.
func (c *Coordinator) callShard(ctx context.Context, s *shardState, mode Mode, cands []bitvec.Vector) ([]int, error) {
	if !s.br.allow() {
		c.met.fastFails.Add(1)
		return nil, fmt.Errorf("shard %s: circuit open", s.id)
	}
	defer s.updateGauge()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.met.retries.Add(1)
			if tr := obsv.FromContext(ctx); tr != nil {
				tr.Count("shard.retries", 1)
			}
			if err := c.backoff.Sleep(ctx, attempt); err != nil {
				return nil, err
			}
			// Each retry is a fresh admission decision: the breaker may have
			// opened on this very call's earlier attempts.
			if !s.br.allow() {
				c.met.fastFails.Add(1)
				return nil, fmt.Errorf("shard %s: circuit open after %d attempts: %w", s.id, attempt, errOrInjected(lastErr))
			}
		}
		counts, err := c.attempt(ctx, s, mode, cands)
		if err == nil {
			s.br.success()
			s.updateGauge()
			return counts, nil
		}
		lastErr = err
		s.br.failure(err)
		s.updateGauge()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= c.cfg.Retries {
			return nil, lastErr
		}
	}
}

func errOrInjected(err error) error {
	if err == nil {
		return errors.New("no prior attempt")
	}
	return err
}

// attempt runs one (possibly hedged) shard call under the per-attempt
// deadline clamp. The hedge launches after the shard's recent latency
// quantile (or the configured cold-start delay); the first response wins and
// the loser's context is cancelled.
func (c *Coordinator) attempt(ctx context.Context, s *shardState, mode Mode, cands []bitvec.Vector) ([]int, error) {
	tctx, cancelTimeout := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancelTimeout()
	actx, cancel := context.WithCancelCause(tctx)
	defer cancel(nil)

	type ares struct {
		counts []int
		err    error
		d      time.Duration
		hedged bool
	}
	ch := make(chan ares, 2)
	launch := func(hedged bool) {
		go func() {
			start := time.Now()
			counts, err := c.invoke(actx, s, mode, cands)
			ch <- ares{counts, err, time.Since(start), hedged}
		}()
	}

	launch(false)
	launched := 1
	hedgeC := (<-chan time.Time)(nil)
	var hedgeTimer *time.Timer
	if !c.cfg.DisableHedge {
		hedgeTimer = time.NewTimer(c.hedgeDelay(s))
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var lastErr error
	for received := 0; received < launched; {
		select {
		case r := <-ch:
			received++
			if r.err == nil {
				s.lat.observe(r.d)
				if r.hedged {
					c.met.hedgeWins.Add(1)
					if tr := obsv.FromContext(actx); tr != nil {
						tr.Count("shard.hedge_wins", 1)
					}
				}
				cancel(errHedgeLost) // first response wins; the loser is cancelled
				return r.counts, nil
			}
			lastErr = r.err
		case <-hedgeC:
			hedgeC = nil
			if launched < 2 {
				launched++
				c.met.hedges.Add(1)
				if tr := obsv.FromContext(actx); tr != nil {
					tr.Count("shard.hedges", 1)
				}
				launch(true)
			}
		case <-actx.Done():
			// Deadline or caller cancellation: in-flight goroutines resolve
			// into the buffered channel and are garbage collected.
			return nil, actx.Err()
		}
	}
	return nil, lastErr
}

// errHedgeLost is the cancellation cause attempt gives the slower of a
// hedged pair once its sibling has answered.
var errHedgeLost = errors.New("shard: hedge sibling answered first")

// invoke is the innermost shard call, counted and traced. A call cancelled
// because its hedge sibling won did not fail and is not counted as a call
// error.
func (c *Coordinator) invoke(ctx context.Context, s *shardState, mode Mode, cands []bitvec.Vector) ([]int, error) {
	c.met.shardCalls.Add(1)
	var sp obsv.Span
	if tr := obsv.FromContext(ctx); tr != nil {
		sp = tr.StartSpan("shard." + s.id)
		defer sp.End()
	}
	counts, err := c.call(ctx, s, mode, cands)
	if err != nil && !errors.Is(context.Cause(ctx), errHedgeLost) {
		c.met.shardErrors.Add(1)
	}
	return counts, err
}

// call carries the fault sites every backend kind shares: shard.slow (delay
// rules here exercise hedging) and shard.solve (error rules exercise retries
// and the breaker).
func (c *Coordinator) call(ctx context.Context, s *shardState, mode Mode, cands []bitvec.Vector) ([]int, error) {
	if err := fault.Hit(ctx, "shard.slow"); err != nil {
		return nil, fmt.Errorf("shard %s: %w", s.id, err)
	}
	if err := fault.Hit(ctx, "shard.solve"); err != nil {
		return nil, fmt.Errorf("shard %s: %w", s.id, err)
	}
	counts, err := s.be.Score(ctx, mode, cands)
	if err != nil {
		return nil, err
	}
	if len(counts) != len(cands) {
		return nil, fmt.Errorf("shard %s: %d counts for %d candidates", s.id, len(counts), len(cands))
	}
	return counts, nil
}

// hedgeDelay is the shard's recent latency quantile, or the configured
// cold-start delay while history is thin, clamped into the attempt deadline.
func (c *Coordinator) hedgeDelay(s *shardState) time.Duration {
	d, ok := s.lat.quantile(c.cfg.HedgeQuantile)
	if !ok {
		d = c.cfg.HedgeAfter
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > c.cfg.ShardTimeout {
		d = c.cfg.ShardTimeout
	}
	return d
}
