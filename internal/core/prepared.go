package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"standout/internal/bitvec"
	"standout/internal/cache"
	"standout/internal/dataset"
	"standout/internal/estimate"
	"standout/internal/fault"
	"standout/internal/index"
	"standout/internal/obsv"
)

// ErrStalePrep reports that a PreparedLog's query log has visibly changed
// since PrepareLog (its version counter moved through Append or Touch, or
// its length differs). Errors returned by PreparedLog.SolveContext on a
// stale prep wrap it: test with errors.Is(err, ErrStalePrep), then rebuild
// with PrepareLog and retry.
var ErrStalePrep = errors.New("core: prepared log modified since PrepareLog")

// DefaultSolutionCacheSize bounds the per-PreparedLog solution memo when the
// caller does not choose a capacity. Solutions are small (one bit vector and
// a few ints), so a thousand entries cost well under a megabyte.
const DefaultSolutionCacheSize = 1024

// PreparedLog is the shared, concurrency-safe per-log solve state of the
// batch path: the inverted attribute→query bitmap index (package index) with
// the log snapshot it covers, and a size-bounded LRU memoizing solutions for
// repeated (solver, tuple, m) triples. Build one with PrepareLog, then
// either attach it to a context with WithPrepared (every solver picks the
// index up transparently) or solve through SolveContext to also get
// memoization. SolveBatchContext builds one automatically per batch and
// shares it across its workers.
//
// A PreparedLog is tied to the exact log contents at PrepareLog time. The
// log must not be mutated while the PreparedLog is in use; mutations made
// through QueryLog.Append or announced with QueryLog.Touch are detected, and
// the two solve paths react differently:
//
//   - SolveContext (and Solve) refuses to use a stale prep and returns an
//     error wrapping ErrStalePrep. The caller decides the recovery — usually
//     rebuild with PrepareLog and retry, which is what the serving layer's
//     single-flight rebuild does.
//   - The WithPrepared context path (normalize picking the index up
//     transparently, including inside SolveBatchContext) silently ignores a
//     stale or mismatched prep and falls back to the direct scan: results
//     are identical, only slower, so a library solve never fails because an
//     accelerator aged out.
//
// In-place bit flips that bypass Touch are undetectable on either path.
//
// Internally the prepared state is a segmented index (index.Segmented): a
// full PrepareLog builds one base segment, and PrepareLogFrom extends a
// previous generation's index with a small delta segment over only the
// appended queries — O(append) work — followed by size-tiered compaction
// that keeps the segment count logarithmic. Solutions are bit-identical
// across any segment layout; the differential suite pins that.
type PreparedLog struct {
	// seg is the index and the snapshot (log, version, size, fingerprint)
	// it covers.
	seg   *index.Segmented
	delta bool // built incrementally by PrepareLogFrom

	// scratch holds the idle kernel scratches of counts (sum) and solves
	// through this prep, each one *index.Scratch per segment of seg, so a
	// warm count or solve allocates none. A free list rather than a
	// sync.Pool, which under the race detector drops a quarter of its Puts
	// at random and so makes allocation counts vary from run to run.
	scratchMu sync.Mutex
	scratch   [][]*index.Scratch

	sols *cache.LRU[solutionKey, Solution]

	// Lazily built itemset-frequency model for the Estimate solver
	// (DESIGN.md §16), built at most once per prep generation and shared by
	// every solve through this prep. est is published atomically so probes
	// never wait on a build; estMu makes the build single-flight and guards
	// estErr.
	estMu  sync.Mutex
	est    atomic.Pointer[estimate.Model]
	estErr error
	// prev is the older generation whose model this prep's model is derived
	// from: the one PrepareLogFrom extended when that one's model is built
	// or it has no prev of its own, else that one's prev. So a chain of
	// unwarmed generations pins at most one ancestor per prep, and the
	// derivation extends over the longer window, which equals a build just
	// the same. Dropped once the model or a sticky error exists, so a warmed
	// prep pins no older generation. Atomic so that reading it never waits
	// on estMu, which a model build holds.
	prev atomic.Pointer[PreparedLog]
	// extended is the log of the generation PrepareLogFrom extended, at the
	// version and size its lineage proof was made against. A derivation
	// refuses once that log has changed, as it would deriving from that
	// generation itself. Guarded by estMu; dropped with prev.
	extended    *dataset.QueryLog
	extendedVer uint64
	extendedLen int
	// estHook, when set by a test, runs at the start of a model build with
	// estMu held.
	estHook func()
}

// solutionKey identifies one memoizable solve: the log contents (by
// fingerprint), the solver's configuration identity, and the instance.
type solutionKey struct {
	fp     uint64
	solver string
	m      int
	tuple  string
}

// PrepareLog validates the log and builds its shared index. The returned
// PreparedLog has solution memoization enabled at DefaultSolutionCacheSize;
// use SetSolutionCache to resize or disable it.
func PrepareLog(log *dataset.QueryLog) (*PreparedLog, error) {
	return PrepareLogContext(context.Background(), log)
}

// PrepareLogWith is PrepareLog under explicit index build options —
// typically to force a column representation (index.ForceDense /
// index.ForceCompressed) for measurement or testing. Solutions are
// bit-identical across modes; only memory and speed differ.
func PrepareLogWith(log *dataset.QueryLog, opts index.Options) (*PreparedLog, error) {
	return PrepareLogContextWith(context.Background(), log, opts)
}

// PrepareLogContext is PrepareLog under a context: the index build is
// recorded as an "index.build" span on the context's trace and counted in
// the process metrics. The build itself is not interruptible — it is one
// pass over the log, far below cancellation granularity.
func PrepareLogContext(ctx context.Context, log *dataset.QueryLog) (*PreparedLog, error) {
	return PrepareLogContextWith(ctx, log, index.Options{})
}

// PrepareLogContextWith is PrepareLogWith under a context.
func PrepareLogContextWith(ctx context.Context, log *dataset.QueryLog, opts index.Options) (*PreparedLog, error) {
	if err := fault.Hit(ctx, "core.prep.build"); err != nil {
		return nil, fmt.Errorf("core: prepare log: %w", err)
	}
	tr := obsv.FromContext(ctx)
	sp := tr.StartSpan("index.build")
	seg, err := index.BuildSegmented(log, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	mIndexBuilds.Add(1)
	tr.Count("index.queries", int64(seg.NumQueries()))
	return newPrepared(seg, nil), nil
}

// newPrepared wraps a built segmented index into the shared solve state;
// prev is the generation a delta build extended (nil for a full build).
func newPrepared(seg *index.Segmented, prev *PreparedLog) *PreparedLog {
	p := &PreparedLog{
		seg:   seg,
		delta: prev != nil,
		sols:  cache.NewLRU[solutionKey, Solution](DefaultSolutionCacheSize),
	}
	if prev != nil {
		p.extended, p.extendedVer, p.extendedLen = prev.seg.Log(), prev.seg.Version(), prev.seg.NumQueries()
		if link := prev.prev.Load(); link != nil && prev.est.Load() == nil {
			prev = link
		}
		p.prev.Store(prev)
	}
	p.sols.OnEvict = func(solutionKey, Solution) {
		mPrepCacheEvictions.Add(1)
		mCacheEvictions.Add(1)
	}
	p.sols.OnHit = func() { mCacheHits.Add(1) }
	p.sols.OnMiss = func() { mCacheMisses.Add(1) }
	return p
}

// PrepareLogFrom is PrepareLogFromContext with a background context.
func PrepareLogFrom(prev *PreparedLog, log *dataset.QueryLog) (*PreparedLog, error) {
	return PrepareLogFromContext(context.Background(), prev, log)
}

// PrepareLogFromContext prepares log reusing prev's index wherever lineage
// allows: when log provably extends the exact contents prev indexed
// (QueryLog.ExtendsFrom against prev's version/size snapshot), the previous
// segments are kept as-is and one delta segment is built over only the
// appended queries — O(append) instead of O(total) — then size-tiered
// compaction bounds the segment count. Any other history (nil prev, a Touch,
// a different log family) falls back to a full build. Solutions are
// bit-identical on every path.
//
// A failure during the compaction step (fault site "core.prep.compact") is
// absorbed, not returned: the delta-extended prep is valid without merging —
// compaction only re-tiers segments — so serving continues on the
// pre-compaction layout and the skip is counted in the process metrics.
func PrepareLogFromContext(ctx context.Context, prev *PreparedLog, log *dataset.QueryLog) (*PreparedLog, error) {
	if prev == nil || !log.ExtendsFrom(prev.seg.Log(), prev.seg.Version(), prev.seg.NumQueries()) {
		var opts index.Options
		if prev != nil {
			opts.Mode = prev.seg.Mode()
		}
		return PrepareLogContextWith(ctx, log, opts)
	}
	if err := fault.Hit(ctx, "core.prep.build"); err != nil {
		return nil, fmt.Errorf("core: prepare log: %w", err)
	}
	tr := obsv.FromContext(ctx)
	sp := tr.StartSpan("index.delta")
	seg, err := prev.seg.Extend(log)
	sp.End()
	if err != nil {
		return nil, err
	}
	mDeltaBuilds.Add(1)
	tr.Count("index.delta.queries", int64(seg.NumQueries()-prev.seg.NumQueries()))

	if ferr := fault.Hit(ctx, "core.prep.compact"); ferr != nil {
		// Injected (or simulated) compaction failure: serve from the unmerged
		// segments — exactness does not depend on the merge schedule.
		mCompactionsSkipped.Add(1)
		tr.Count("index.compaction.skipped", 1)
		return newPrepared(seg, prev), nil
	}
	sp = tr.StartSpan("index.compact")
	merged, nmerged, err := seg.CompactTiered()
	sp.End()
	if err != nil {
		mCompactionsSkipped.Add(1)
		tr.Count("index.compaction.skipped", 1)
		return newPrepared(seg, prev), nil
	}
	if nmerged > 0 {
		mCompactions.Add(1)
		tr.Count("index.compaction.segments", int64(nmerged))
	}
	return newPrepared(merged, prev), nil
}

// Log returns the prepared query log.
func (p *PreparedLog) Log() *dataset.QueryLog { return p.seg.Log() }

// Fingerprint returns the log's content hash at PrepareLog time.
func (p *PreparedLog) Fingerprint() uint64 { return p.seg.Fingerprint() }

// TotalWeight returns the log's total query weight at PrepareLog time.
func (p *PreparedLog) TotalWeight() int { return p.seg.TotalWeight() }

// LogSummary returns log's Fingerprint and TotalWeight, hashing only the
// queries appended since this prep's snapshot when log provably extends it
// (index.Segmented.Summary), and all of log otherwise.
func (p *PreparedLog) LogSummary(log *dataset.QueryLog) (fingerprint uint64, totalWeight int) {
	return p.seg.Summary(log)
}

// Segments returns the number of index segments backing this prep: 1 after a
// full PrepareLog, possibly more after incremental PrepareLogFrom builds.
func (p *PreparedLog) Segments() int { return p.seg.Segments() }

// Delta reports whether this prep was built incrementally by PrepareLogFrom
// (a delta extension of a previous generation) rather than by a full build.
func (p *PreparedLog) Delta() bool { return p.delta }

// Stale reports whether the log has visibly changed since PrepareLog (its
// version counter moved or its length differs). A stale PreparedLog must be
// rebuilt; SolveContext refuses to use one.
func (p *PreparedLog) Stale() bool { return p.seg.Stale() }

// usableFor reports whether the prepared state may serve instances over log:
// same log object, not stale.
func (p *PreparedLog) usableFor(log *dataset.QueryLog) bool {
	return p != nil && p.seg.Log() == log && !p.Stale()
}

// EstimatorModel returns the prep's shared itemset-frequency model for the
// Estimate solver, building it on first use (single-flight: concurrent first
// callers fold into one build). The model summarizes the exact log
// generation this prep indexed; staleness is the caller's business —
// SolveContext's staleness check happens before any solver runs, so the
// model a successful solve uses always matches the prep's snapshot.
//
// A prep that PrepareLogFrom built as a delta derives its model from a
// predecessor's (estimate.Model.Extend over the queries appended since, with
// this prep's index answering the supports the appended queries cannot),
// which costs O(append) instead of a mining pass over the whole log and
// yields exactly the model a full build would. The predecessor is the
// generation it extended, or, when that one was still unwarmed and derived
// from an older one, that older one; its model comes from its own
// EstimatorModel. Every other case — a full build, a stale prep, a
// predecessor model that does not summarize exactly the queries it indexed,
// a changed log, a failed derivation — builds from the log.
//
// A context-cancellation failure is not sticky (the next caller rebuilds);
// any other build failure is recorded and returned to every later caller.
func (p *PreparedLog) EstimatorModel(ctx context.Context) (*estimate.Model, error) {
	if m := p.est.Load(); m != nil {
		return m, nil
	}
	p.estMu.Lock()
	defer p.estMu.Unlock()
	if m := p.est.Load(); m != nil {
		return m, nil
	}
	if p.estErr != nil {
		return nil, p.estErr
	}
	if p.estHook != nil {
		p.estHook()
	}
	m, err := p.deriveModel(ctx)
	if err == nil && m == nil {
		m, err = estimate.BuildContext(ctx, p.seg.Log(), estimate.Options{})
	}
	if err != nil {
		if ctx.Err() == nil {
			p.estErr = err
			p.prev.Store(nil)
			p.extended = nil
		}
		return nil, err
	}
	p.est.Store(m)
	p.prev.Store(nil)
	p.extended = nil
	return m, nil
}

// deriveModel extends the predecessor's model over the appended queries. It
// returns (nil, nil) when the derivation does not apply or fails for a
// reason other than ctx, and the caller builds from the log instead.
func (p *PreparedLog) deriveModel(ctx context.Context) (*estimate.Model, error) {
	prev := p.prev.Load()
	if prev == nil {
		return nil, nil
	}
	pm, err := prev.EstimatorModel(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, nil
	}
	// pm must summarize exactly the queries prev indexed, which the window
	// follows (a predecessor log appended to in place before its model was
	// built fails that), and no log may have changed since its prep or
	// lineage proof: a Touch of prev's log may have reached pm, one of p's
	// log would reach Build but not the derivation.
	from := prev.seg.NumQueries()
	ext := p.extended
	if pm.NumQueries() != from || prev.Stale() || p.Stale() ||
		ext.Version() != p.extendedVer || ext.Size() != p.extendedLen {
		return nil, nil
	}
	m, err := pm.Extend(ctx, p.seg.Log().Window(from, p.seg.NumQueries()), p.containing)
	if err != nil && ctx.Err() == nil {
		return nil, nil
	}
	return m, err
}

// EstimatorModelReady returns the shared estimator model if one has already
// been built for this prep, else nil — a non-building probe for ladder and
// shed decisions that must not pay a mining pass, nor wait for one in
// flight.
func (p *PreparedLog) EstimatorModelReady() *estimate.Model {
	return p.est.Load()
}

// SetSolutionCache bounds the solution memo to capacity entries; ≤ 0
// disables memoization (the index keeps working). Resizing down evicts
// oldest entries. Safe to call concurrently with solves.
func (p *PreparedLog) SetSolutionCache(capacity int) { p.sols.Resize(capacity) }

// CacheStats snapshots the solution memo's hit/miss/eviction counters.
func (p *PreparedLog) CacheStats() cache.Stats { return p.sols.Stats() }

// Solve is SolveContext with a background context.
func (p *PreparedLog) Solve(s Solver, tuple bitvec.Vector, m int) (Solution, error) {
	return p.SolveContext(context.Background(), s, tuple, m)
}

// SolveContext solves (log, tuple, m) with s through the shared state: the
// solver runs with the index attached, and — for solvers with a stable
// configuration identity (every solver in this package) — successful
// solutions are memoized so a repeated tuple returns without solving.
// Memoized hits return a defensive clone of the kept vector and re-stamp the
// current context's trace. Solvers of unknown concrete type are never
// memoized (their configuration cannot be keyed), only accelerated.
func (p *PreparedLog) SolveContext(ctx context.Context, s Solver, tuple bitvec.Vector, m int) (Solution, error) {
	if p.Stale() {
		log := p.seg.Log()
		return Solution{}, fmt.Errorf(
			"%w (version %d → %d, size %d → %d); re-prepare",
			ErrStalePrep, p.seg.Version(), log.Version(), p.seg.NumQueries(), log.Size())
	}
	// Chaos hook: an injected fault here simulates the log aging out between
	// the staleness check and the solve, the race a serving layer must absorb.
	if ferr := fault.Hit(ctx, "core.prep.stale"); ferr != nil {
		return Solution{}, fmt.Errorf("%w (injected: %v); re-prepare", ErrStalePrep, ferr)
	}
	ctx = withPrepared(ctx, p)
	tr := obsv.FromContext(ctx)

	id, cacheable := solverCacheID(s)
	var key solutionKey
	if cacheable {
		key = solutionKey{fp: p.seg.Fingerprint(), solver: id, m: m, tuple: tuple.Key()}
		if sol, ok := p.sols.Get(key); ok {
			mPrepCacheHits.Add(1)
			tr.Count("prep.cache.hit", 1)
			sol.Kept = sol.Kept.Clone()
			sol.trace = tr
			return sol, nil
		}
		mPrepCacheMisses.Add(1)
		tr.Count("prep.cache.miss", 1)
	}

	sol, err := s.SolveContext(ctx, Instance{Log: p.seg.Log(), Tuple: tuple, M: m})
	if err == nil && cacheable {
		p.sols.Put(key, sol)
	}
	return sol, err
}

// solverCacheID maps a solver to a stable identity string covering its
// result-relevant configuration. Only solvers of this package's concrete
// types are keyable; unknown implementations report false and are never
// memoized. A MaxFreqItemSets with a caller-supplied RNG is also unkeyable:
// its walk results depend on external mutable state.
func solverCacheID(s Solver) (string, bool) {
	switch v := s.(type) {
	case BruteForce:
		return "brute", true
	case IP:
		return "ip", true
	case ILP:
		return fmt.Sprintf("ilp;timeout=%s;maxnodes=%d;presolve=%t", v.Timeout, v.MaxNodes, v.Presolve), true
	case ConsumeAttr:
		return "consume-attr", true
	case ConsumeAttrCumul:
		return "consume-attr-cumul", true
	case ConsumeQueries:
		return "consume-queries", true
	case MaxFreqItemSets:
		return mfiCacheID(v)
	case Estimate:
		if v.Model != nil {
			// An injected model's provenance is outside the (fingerprint,
			// solver, instance) key: never memoize.
			return "", false
		}
		return fmt.Sprintf("estimate;L=%d;sup=%d;k=%d;lp=%d,%g,%t",
			v.Opts.MaxItemset, v.Opts.MinSupport, v.Opts.MaxAtomAttrs,
			v.Opts.LP.MaxIters, v.Opts.LP.Tol, v.Opts.LP.Presolve), true
	case PreparedSolver:
		if v.Prep == nil {
			return "", false
		}
		id, ok := mfiCacheID(v.Prep.s)
		return "prepared;" + id, ok
	default:
		return "", false
	}
}

func mfiCacheID(v MaxFreqItemSets) (string, bool) {
	if v.Walk.Rng != nil {
		return "", false
	}
	return fmt.Sprintf("mfi;backend=%d;thr=%d;init=%d;seed=%d;walk=%d,%d,%d",
		v.Backend, v.Threshold, v.InitialThreshold, v.Seed,
		v.Walk.MaxIters, v.Walk.MinIters, v.Walk.MinConfirm), true
}

// Context plumbing. The prepared log rides the context so the whole solver
// stack — down to normalize — can pick up the shared index without changing
// the Solver interface.

type preparedCtxKey struct{}
type noPrepCtxKey struct{}

// withPrepared returns a context carrying p for the solvers underneath.
func withPrepared(ctx context.Context, p *PreparedLog) context.Context {
	return context.WithValue(ctx, preparedCtxKey{}, p)
}

// WithPrepared returns a context under which every solve of p's log uses
// the shared index (solves of other logs are unaffected). Unlike
// PreparedLog.SolveContext it does not memoize solutions.
func WithPrepared(ctx context.Context, p *PreparedLog) context.Context {
	return withPrepared(ctx, p)
}

// preparedFromContext returns the attached PreparedLog, or nil.
func preparedFromContext(ctx context.Context) *PreparedLog {
	p, _ := ctx.Value(preparedCtxKey{}).(*PreparedLog)
	return p
}

// PreparedFromContext returns the PreparedLog attached by WithPrepared (or
// built by SolveBatchContext), or nil.
func PreparedFromContext(ctx context.Context) *PreparedLog { return preparedFromContext(ctx) }

// WithoutPreparation returns a context under which SolveBatchContext skips
// its automatic index build and runs the direct scan path — the pre-index
// behavior, kept reachable for A/B measurement and differential testing. An
// explicitly attached PreparedLog (WithPrepared further down the chain)
// still wins.
func WithoutPreparation(ctx context.Context) context.Context {
	return context.WithValue(ctx, noPrepCtxKey{}, true)
}

func preparationDisabled(ctx context.Context) bool {
	disabled, _ := ctx.Value(noPrepCtxKey{}).(bool)
	return disabled
}
