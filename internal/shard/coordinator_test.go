package shard

// Robustness-layer tests: breaker state machine, hedging, retries, and the
// restart-on-mid-request-loss protocol — all against deterministic scripted
// backends, no real clocks where avoidable.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
)

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	br := newBreaker(2, 100*time.Millisecond)
	br.now = func() time.Time { return now }

	if !br.allow() {
		t.Fatal("closed breaker denied a call")
	}
	br.failure(errors.New("e1"))
	if st, _, _, _, _ := br.snapshot(); st != stateClosed {
		t.Fatalf("one failure under threshold 2 opened the circuit: %v", st)
	}
	br.failure(errors.New("e2"))
	if st, lastErr, _, _, trips := br.snapshot(); st != stateOpen || trips != 1 || lastErr != "e2" {
		t.Fatalf("after threshold failures: state=%v trips=%d lastErr=%q", st, trips, lastErr)
	}
	if br.allow() {
		t.Fatal("open breaker admitted a call inside cooloff")
	}
	if br.available() {
		t.Fatal("open breaker inside cooloff reports available")
	}

	now = now.Add(150 * time.Millisecond)
	if !br.available() {
		t.Fatal("open breaker past cooloff reports unavailable")
	}
	if !br.allow() {
		t.Fatal("open breaker past cooloff denied the probe")
	}
	if st, _, _, _, _ := br.snapshot(); st != stateHalfOpen {
		t.Fatalf("probe admission left state %v", st)
	}
	if br.allow() {
		t.Fatal("second concurrent probe admitted")
	}
	br.failure(errors.New("probe failed"))
	if st, _, _, _, trips := br.snapshot(); st != stateOpen || trips != 2 {
		t.Fatalf("failed probe: state=%v trips=%d", st, trips)
	}

	now = now.Add(150 * time.Millisecond)
	if !br.allow() {
		t.Fatal("re-probe denied")
	}
	br.success()
	if st, lastErr, _, _, _ := br.snapshot(); st != stateClosed || lastErr != "" {
		t.Fatalf("successful probe: state=%v lastErr=%q", st, lastErr)
	}
	if !br.allow() {
		t.Fatal("closed breaker denied a call after recovery")
	}
}

func TestLatencyWindowQuantile(t *testing.T) {
	w := &latencyWindow{}
	if _, ok := w.quantile(0.95); ok {
		t.Fatal("empty window returned a quantile")
	}
	for i := 1; i <= 7; i++ {
		w.observe(time.Duration(i) * time.Millisecond)
	}
	if _, ok := w.quantile(0.95); ok {
		t.Fatal("7-sample window returned a quantile")
	}
	w.observe(8 * time.Millisecond)
	q, ok := w.quantile(0.95)
	if !ok {
		t.Fatal("8-sample window returned no quantile")
	}
	if q < 6*time.Millisecond || q > 8*time.Millisecond {
		t.Fatalf("p95 of 1..8ms = %v", q)
	}
	q50, _ := w.quantile(0.5)
	if q50 >= q {
		t.Fatalf("p50 %v not below p95 %v", q50, q)
	}
	// Overflow the ring: old samples fall out.
	for i := 0; i < 200; i++ {
		w.observe(time.Millisecond)
	}
	if q, _ := w.quantile(0.99); q != time.Millisecond {
		t.Fatalf("saturated window p99 = %v, want 1ms", q)
	}
}

// hookBackend wraps a Backend with a per-call hook; the call counter is
// shared across hedged duplicates (atomic).
type hookBackend struct {
	inner Backend
	calls atomic.Int64
	hook  func(ctx context.Context, call int64) error
}

func (h *hookBackend) ID() string { return h.inner.ID() }
func (h *hookBackend) Score(ctx context.Context, mode Mode, cands []bitvec.Vector) ([]int, error) {
	n := h.calls.Add(1)
	if h.hook != nil {
		if err := h.hook(ctx, n); err != nil {
			return nil, err
		}
	}
	return h.inner.Score(ctx, mode, cands)
}

// fixedCase builds a deterministic instance whose greedy solve needs at
// least three scatters (freqs, one cumulative round, final subset count).
func fixedCase(t *testing.T) diffCase {
	t.Helper()
	c := genCase(42)
	c.tuple = bitvec.New(c.log.Width())
	for i := 0; i < 4; i++ {
		c.tuple.Set(i)
	}
	c.m = 2
	return c
}

func TestRetriesRecoverTransientFailure(t *testing.T) {
	c := fixedCase(t)
	backends := localBackends(t, c.log, 2)
	flaky := &hookBackend{inner: backends[1], hook: func(_ context.Context, call int64) error {
		if call == 1 {
			return errors.New("transient")
		}
		return nil
	}}
	cfg := testConfig([]Backend{backends[0], flaky}, c.log.Schema)
	cfg.Retries = 2
	cfg.RetryBackoff = time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := co.Solve(context.Background(), c.tuple, c.m, "greedy")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: c.log, Tuple: c.tuple, M: c.m})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	checkIdentical(t, "retry-recovered", got, want)
	if co.met.retries.Value() == 0 {
		t.Error("transient failure recovered without a recorded retry")
	}
}

func TestMidRequestLossRestartsOverSurvivors(t *testing.T) {
	c := fixedCase(t)
	parts, err := Partition(context.Background(), c.log, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	l0, err := NewLocal(context.Background(), "s0", parts[0])
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	l1, err := NewLocal(context.Background(), "s1", parts[1])
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	// s1 answers the first two scatters, then dies: the solve is mid-request
	// when the loss hits, so merged counts from mixed shard sets would be
	// inconsistent — the coordinator must restart over s0 alone.
	dying := &hookBackend{inner: l1, hook: func(_ context.Context, call int64) error {
		if call > 2 {
			return errors.New("late death")
		}
		return nil
	}}
	co, err := New(testConfig([]Backend{l0, dying}, c.log.Schema))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := co.Solve(context.Background(), c.tuple, c.m, "greedy")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !got.Partial {
		t.Fatal("mid-request loss did not produce a partial result")
	}
	if got.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", got.Restarts)
	}
	if len(got.Responded) != 1 || got.Responded[0] != "s0" || len(got.Missing) != 1 || got.Missing[0] != "s1" {
		t.Errorf("responded=%v missing=%v", got.Responded, got.Missing)
	}
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: parts[0], Tuple: c.tuple, M: c.m})
	if err != nil {
		t.Fatalf("survivor unsharded: %v", err)
	}
	if !got.Solution.Kept.Equal(want.Kept) || got.Solution.Satisfied != want.Satisfied {
		t.Errorf("partial (%s, %d) != survivor unsharded (%s, %d)",
			got.Solution.Kept, got.Solution.Satisfied, want.Kept, want.Satisfied)
	}
}

func TestBreakerOpensAndRecoversThroughProbe(t *testing.T) {
	c := fixedCase(t)
	backends := localBackends(t, c.log, 2)
	var down atomic.Bool
	down.Store(true)
	flappy := &hookBackend{inner: backends[1], hook: func(context.Context, int64) error {
		if down.Load() {
			return errors.New("shard down")
		}
		return nil
	}}
	cfg := testConfig([]Backend{backends[0], flappy}, c.log.Schema)
	cfg.Retries = 2 // 3 attempts ≥ threshold: the circuit opens within one request
	cfg.RetryBackoff = time.Millisecond
	cfg.BreakerFailures = 3
	cfg.BreakerCooloff = 50 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	got, err := co.Solve(context.Background(), c.tuple, c.m, "greedy")
	if err != nil {
		t.Fatalf("Solve with one shard down: %v", err)
	}
	if !got.Partial {
		t.Fatal("one shard hard-down: response not partial")
	}
	h := co.Health()
	if h[1].State != "open" {
		t.Fatalf("shard s1 circuit = %q after retry budget, want open (health: %+v)", h[1].State, h)
	}
	if h[1].Trips == 0 || h[1].LastError == "" {
		t.Errorf("open circuit with trips=%d lastErr=%q", h[1].Trips, h[1].LastError)
	}

	// While open, the shard is excluded up front — still partial, no probe
	// slot consumed.
	got, err = co.Solve(context.Background(), c.tuple, c.m, "greedy")
	if err != nil || !got.Partial {
		t.Fatalf("solve during cooloff: partial=%v err=%v", got.Partial, err)
	}

	// Shard heals; after the cooloff the half-open probe closes the circuit
	// and answers go back to full and bit-identical to unsharded.
	down.Store(false)
	time.Sleep(60 * time.Millisecond)
	got, err = co.Solve(context.Background(), c.tuple, c.m, "greedy")
	if err != nil {
		t.Fatalf("Solve after recovery: %v", err)
	}
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: c.log, Tuple: c.tuple, M: c.m})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	checkIdentical(t, "post-recovery", got, want)
	if h := co.Health(); h[1].State != "closed" {
		t.Errorf("recovered shard circuit = %q, want closed", h[1].State)
	}
}

func TestAllShardsLostIsErrNoShards(t *testing.T) {
	c := fixedCase(t)
	cfg := testConfig([]Backend{failBackend{id: "s0"}, failBackend{id: "s1"}}, c.log.Schema)
	cfg.BreakerFailures = 1
	cfg.BreakerCooloff = time.Hour
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := co.Solve(context.Background(), c.tuple, c.m, "greedy"); !errors.Is(err, ErrNoShards) {
		t.Fatalf("all shards failing: err = %v, want ErrNoShards", err)
	}
	// Second call: both circuits are open, the pre-filter short-circuits.
	if _, err := co.Solve(context.Background(), c.tuple, c.m, "greedy"); !errors.Is(err, ErrNoShards) {
		t.Fatalf("all circuits open: err = %v, want ErrNoShards", err)
	}
}

func TestHedgeRacesSlowPrimary(t *testing.T) {
	c := fixedCase(t)
	backends := localBackends(t, c.log, 1)
	// The first invocation stalls; its hedge (a fresh call) answers fast.
	slowOnce := &hookBackend{inner: backends[0], hook: func(ctx context.Context, call int64) error {
		if call == 1 {
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}}
	cfg := testConfig([]Backend{slowOnce}, c.log.Schema)
	cfg.DisableHedge = false
	cfg.HedgeAfter = 5 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	start := time.Now()
	got, err := co.Solve(context.Background(), c.tuple, c.m, "greedy")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not race the stalled primary: solve took %v", elapsed)
	}
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: c.log, Tuple: c.tuple, M: c.m})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	checkIdentical(t, "hedged", got, want)
	if co.met.hedges.Value() == 0 || co.met.hedgeWins.Value() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", co.met.hedges.Value(), co.met.hedgeWins.Value())
	}
}

// TestHealthyHedgingCountsNoCallErrors: shards that always answer, but
// slowly enough that every cold-start attempt hedges, must leave the call
// error counter at zero — the cancelled slower half of a hedged pair did
// not fail.
func TestHealthyHedgingCountsNoCallErrors(t *testing.T) {
	c := fixedCase(t)
	backends := localBackends(t, c.log, 2)
	for i, b := range backends {
		backends[i] = &hookBackend{inner: b, hook: func(ctx context.Context, _ int64) error {
			select {
			case <-time.After(3 * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}}
	}
	cfg := testConfig(backends, c.log.Schema)
	cfg.DisableHedge = false
	cfg.HedgeAfter = time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, algo := range diffAlgos {
		got, err := co.Solve(context.Background(), c.tuple, c.m, algo.name)
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		want, err := algo.solver.Solve(core.Instance{Log: c.log, Tuple: c.tuple, M: c.m})
		if err != nil {
			t.Fatalf("%s unsharded: %v", algo.name, err)
		}
		checkIdentical(t, algo.name, got, want)
	}
	if co.met.hedges.Value() == 0 {
		t.Fatal("no hedge launched; the test needs calls slower than the hedge delay")
	}
	if n := co.met.shardErrors.Value(); n != 0 {
		t.Errorf("healthy fleet counted %d call errors over %d calls and %d hedges, want 0",
			n, co.met.shardCalls.Value(), co.met.hedges.Value())
	}
}

// lingerBackend keeps reading each call's candidates after Score has
// returned, as an abandoned hedge or retry still encoding its request does.
type lingerBackend struct {
	Backend
	wg sync.WaitGroup
}

func (l *lingerBackend) Score(ctx context.Context, mode Mode, cands []bitvec.Vector) ([]int, error) {
	counts, err := l.Backend.Score(ctx, mode, cands)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for _, c := range cands {
			_ = c.String()
		}
	}()
	return counts, err
}

// TestBruteRoundsKeepAbandonedBatches: a brute enumeration spanning several
// scatter rounds must not refill a round's candidate slice while a call that
// outlived the round still reads it. `go test -race` reports the reuse.
func TestBruteRoundsKeepAbandonedBatches(t *testing.T) {
	log := testLog(t, 11, 14, 200)
	tuple := bitvec.New(14)
	for a := 0; a < 14; a++ {
		tuple.Set(a)
	}
	const m = 4 // C(14,4) = 1001 candidates: four scatter rounds
	inner := localBackends(t, log, 2)
	lingering := make([]*lingerBackend, len(inner))
	backends := make([]Backend, len(inner))
	for i, b := range inner {
		lingering[i] = &lingerBackend{Backend: b}
		backends[i] = lingering[i]
	}
	co, err := New(testConfig(backends, log.Schema))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := co.Solve(context.Background(), tuple, m, "brute")
	for _, l := range lingering {
		l.wg.Wait()
	}
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := core.BruteForce{}.Solve(core.Instance{Log: log, Tuple: tuple, M: m})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	checkIdentical(t, "brute", got, want)
	if got.Solution.Stats.Candidates != 1001 {
		t.Errorf("enumerated %d candidates, want 1001", got.Solution.Stats.Candidates)
	}
}

func TestSolveValidationErrors(t *testing.T) {
	c := genCase(7)
	co, err := New(testConfig(localBackends(t, c.log, 2), c.log.Schema))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := co.Solve(context.Background(), c.tuple, c.m, "quantum"); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, err := co.Solve(context.Background(), bitvec.New(c.log.Width()+1), c.m, "greedy"); err == nil {
		t.Error("wrong-width tuple accepted")
	}
	if _, err := co.Solve(context.Background(), c.tuple, -1, "greedy"); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestBruteBudgetLadderDegradesToGreedy(t *testing.T) {
	c := fixedCase(t)
	cfg := testConfig(localBackends(t, c.log, 2), c.log.Schema)
	cfg.ExactBudget = time.Hour // brute never fits
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := co.Solve(ctx, c.tuple, c.m, "brute")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !got.Degraded || got.Solver != "greedy" {
		t.Fatalf("degraded=%v solver=%q, want degraded greedy", got.Degraded, got.Solver)
	}
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: c.log, Tuple: c.tuple, M: c.m})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	checkIdentical(t, "ladder-degraded", got, want)
	// Without a deadline the ladder has nothing to clamp: brute runs.
	got, err = co.Solve(context.Background(), c.tuple, c.m, "brute")
	if err != nil || got.Degraded || got.Solver != "brute" {
		t.Fatalf("no-deadline brute: degraded=%v solver=%q err=%v", got.Degraded, got.Solver, err)
	}
}

func TestNewValidation(t *testing.T) {
	c := genCase(9)
	if _, err := New(Config{Schema: c.log.Schema}); err == nil {
		t.Error("New without backends succeeded")
	}
	if _, err := New(Config{Backends: localBackends(t, c.log, 1)}); err == nil {
		t.Error("New without schema succeeded")
	}
	dup := localBackends(t, c.log, 1)
	if _, err := New(testConfig([]Backend{dup[0], dup[0]}, c.log.Schema)); err == nil {
		t.Error("duplicate shard ids accepted")
	}
	names := AlgoNames()
	if len(names) != 5 {
		t.Errorf("AlgoNames = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("AlgoNames not sorted: %v", names)
		}
	}
	_ = fmt.Sprintf("%v", names)
}
