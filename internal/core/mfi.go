package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/itemsets"
	"standout/internal/obsv"
)

// MiningBackend selects how MaxFreqItemSets mines maximal frequent itemsets
// of the complemented query log.
type MiningBackend int

const (
	// BackendTwoPhaseWalk is the paper's top-down/bottom-up two-phase random
	// walk (§IV.C, Fig 3). Fast on the dense complement tables; complete with
	// high probability but not guaranteed.
	BackendTwoPhaseWalk MiningBackend = iota
	// BackendBottomUpWalk is the bottom-up random walk of Gunopulos et al.
	// [11], included as the ablation baseline the paper argues against.
	BackendBottomUpWalk
	// BackendExactDFS mines maximal sets exactly by depth-first search;
	// slower but turns the solver into a guaranteed-optimal algorithm.
	BackendExactDFS
)

func (b MiningBackend) String() string {
	switch b {
	case BackendTwoPhaseWalk:
		return "two-phase-walk"
	case BackendBottomUpWalk:
		return "bottom-up-walk"
	case BackendExactDFS:
		return "exact-dfs"
	}
	return "unknown"
}

// MaxFreqItemSets is the scalable exact algorithm of §IV.C. The query log is
// complemented (queries become ~q), maximal frequent itemsets of the dense
// complement are mined, and the best compression is found among the
// level-(M−m) subsets of those maximal sets that are supersets of ~t.
//
// The support threshold follows the paper's adaptive procedure: start high
// and halve until a solution appears (guaranteed at threshold 1 whenever any
// compression satisfies at least one query). A fixed threshold can be set to
// reproduce the paper's "1% of the query log" heuristic, in which case the
// solver reports the best compression satisfying at least that many queries
// or falls back to a frequency-greedy choice when there is none.
type MaxFreqItemSets struct {
	// Backend selects the miner; the zero value is the paper's two-phase walk.
	Backend MiningBackend
	// Threshold fixes the support threshold; 0 means adaptive halving.
	Threshold int
	// InitialThreshold seeds adaptive halving; 0 means |restricted log|.
	InitialThreshold int
	// Walk tunes the random-walk backends.
	Walk itemsets.WalkOptions
	// Seed drives the walk RNG when Walk.Rng is nil; two solves with the same
	// seed are identical.
	Seed int64
	// Workers parallelizes the mining of the exact-DFS backend (the DFS
	// root's branches fan out over internal/par); ≤ 1 mines sequentially.
	// Results are bit-identical for any worker count: the mined maximal-set
	// list is canonicalized to a total order either way (DESIGN.md §11). The
	// walk backends ignore Workers — a walk consumes one shared RNG stream,
	// which parallel consumption would reorder, changing results.
	Workers int
}

// Name implements Solver.
func (MaxFreqItemSets) Name() string { return "MaxFreqItemSets-SOC-CB-QL" }

// Solve implements Solver. For repeated solves over the same log (the
// regime the paper's preprocessing discussion targets), use Preprocess once
// and SolvePrepared per tuple.
func (s MaxFreqItemSets) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. Cancellation is polled inside the mining
// backend (per DFS call or walk iteration) and throughout the level-(M−m)
// candidate enumeration.
func (s MaxFreqItemSets) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	sol, err := s.solve(ctx, in)
	return obs.end(ctx, sol, err)
}

func (s MaxFreqItemSets) solve(ctx context.Context, in Instance) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: mfi: %w", err)
	}
	n, err := normalize(ctx, in)
	if err != nil {
		return Solution{}, err
	}
	defer n.release()
	if n.exact {
		return n.full(), nil
	}
	// Mining always runs per tuple, on the log projected to the tuple's
	// attributes, even when a PreparedLog is attached: projection bounds the
	// mining dimension by popcount(t), and exact DFS over the full schema
	// width is exponentially worse — sharing full-complement mining across a
	// batch loses far more than it amortizes (and the walk backends would
	// additionally change results by consuming randomness differently). The
	// attached index still accelerates normalize and scoring, and repeated
	// tuples hit the PreparedLog's solution memo above this call.
	return s.solveNormalized(ctx, n, nil)
}

// Prep is the reusable preprocessing state of §IV.C: the complemented query
// log's miner and, per threshold already explored, the mined maximal
// frequent itemsets. It is safe to reuse across tuples and budgets for the
// same query log; it is not safe for concurrent use.
type Prep struct {
	s     MaxFreqItemSets
	log   *dataset.QueryLog
	miner *itemsets.Miner

	mu     sync.Mutex // guards perThr and deduplicates concurrent mining
	perThr map[int][]itemsets.ItemsetCount
}

// Preprocess mines nothing yet but builds the complement representation;
// maximal itemsets are mined lazily per threshold and cached. Passing the
// whole query log here (rather than a per-tuple restriction) is what makes
// the cache reusable across tuples.
func (s MaxFreqItemSets) Preprocess(log *dataset.QueryLog) (*Prep, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	return &Prep{
		s:      s,
		log:    log,
		miner:  itemsets.NewMinerWeighted(log.AsTable().Complement(), log.Weights),
		perThr: map[int][]itemsets.ItemsetCount{},
	}, nil
}

// SolvePrepared solves an instance over the preprocessed log. in.Log must be
// the same log passed to Preprocess.
func (p *Prep) SolvePrepared(tuple bitvec.Vector, m int) (Solution, error) {
	return p.SolvePreparedContext(context.Background(), tuple, m)
}

// SolvePreparedContext is SolvePrepared under a context. A solve interrupted
// mid-mining leaves the per-threshold cache untouched (partial mining results
// are never cached), so a later solve at the same threshold starts clean.
func (p *Prep) SolvePreparedContext(ctx context.Context, tuple bitvec.Vector, m int) (Solution, error) {
	obs := beginSolve(ctx, PreparedSolver{}.Name(), Instance{Log: p.log, Tuple: tuple, M: m})
	sol, err := p.solvePrepared(ctx, tuple, m)
	return obs.end(ctx, sol, err)
}

func (p *Prep) solvePrepared(ctx context.Context, tuple bitvec.Vector, m int) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: mfi prepared: %w", err)
	}
	n, err := normalize(ctx, Instance{Log: p.log, Tuple: tuple, M: m})
	if err != nil {
		return Solution{}, err
	}
	defer n.release()
	if n.exact {
		return n.full(), nil
	}
	return p.s.solveNormalized(ctx, n, p)
}

// solveNormalized dispatches a one-shot solve to the projected sub-problem
// over the tuple's own attributes, or a prepared solve to the shared
// full-width miner.
//
// The projection is an exact reduction: every row of the restricted
// complement contains ~t, so the bits outside the tuple are constant across
// the mined table; dropping them shrinks the lattice from M to |t|
// dimensions without changing the set of maximal frequent itemsets (each
// projected set corresponds to its union with ~t).
func (s MaxFreqItemSets) solveNormalized(ctx context.Context, n normalized, prep *Prep) (Solution, error) {
	if prep != nil {
		return s.solveCore(ctx, n, prep)
	}
	width := n.in.Tuple.Width()
	proj := dataset.NewQueryLog(dataset.GenericSchema(len(n.ones)))
	pos := make(map[int]int, len(n.ones)) // original attr → projected index
	for i, j := range n.ones {
		pos[j] = i
	}
	for qi, q := range n.log.Queries {
		pq := bitvec.New(len(n.ones))
		for _, j := range q.Ones() {
			pq.Set(pos[j])
		}
		proj.Queries = append(proj.Queries, pq)
		if n.log.Weights != nil {
			proj.Weights = append(proj.Weights, n.log.Weights[qi])
		}
	}
	pn, err := normalize(ctx, Instance{Log: proj, Tuple: bitvec.New(len(n.ones)).Not(), M: n.m})
	if err != nil {
		return Solution{}, err
	}
	sol, err := s.solveCore(ctx, pn, nil)
	if err != nil {
		return Solution{}, err
	}
	attrs := make([]int, 0, sol.Kept.Count())
	for _, i := range sol.Kept.Ones() {
		attrs = append(attrs, n.ones[i])
	}
	sol.Kept = bitvec.FromIndices(width, attrs...)
	sol.Satisfied = n.score(sol.Kept) // identical count, recomputed in original space
	return sol, nil
}

// solveCore runs the MFI search. When prep is non-nil the mining runs on the
// full log's complement with caching; otherwise on the (projected)
// restricted log's complement.
func (s MaxFreqItemSets) solveCore(ctx context.Context, n normalized, prep *Prep) (Solution, error) {
	mineLog := n.log
	if prep != nil {
		mineLog = prep.log
	}
	// Support thresholds are in weight units: the miner counts weighted
	// support, the greedy seed below is a weighted score, and a hit at any
	// threshold proves a weighted-OPT bound — the optimality argument carries
	// over verbatim with "queries" read as "total weight".
	size := mineLog.TotalWeight()
	stats := Stats{}
	tr := obsv.FromContext(ctx)

	var oneShotMiner *itemsets.Miner // built lazily, shared across thresholds
	runMiner := func(miner *itemsets.Miner, thr int) ([]itemsets.ItemsetCount, error) {
		sp := tr.StartSpan("mine")
		defer sp.End()
		switch s.Backend {
		case BackendExactDFS:
			return miner.MaximalDFSParallelContext(ctx, thr, s.Workers)
		case BackendBottomUpWalk:
			return miner.MaximalRandomWalkBottomUpContext(ctx, thr, s.walkOpts())
		default:
			return miner.MaximalRandomWalkContext(ctx, thr, s.walkOpts())
		}
	}
	mine := func(thr int) ([]itemsets.ItemsetCount, error) {
		if prep != nil {
			// The lock is held across mining so concurrent SolvePrepared
			// callers hitting the same threshold mine it exactly once.
			prep.mu.Lock()
			defer prep.mu.Unlock()
			if cached, ok := prep.perThr[thr]; ok {
				return cached, nil
			}
			out, err := runMiner(prep.miner, thr)
			if err != nil {
				// Mining was interrupted: the itemsets gathered so far are an
				// incomplete sample and must not poison the shared cache.
				return nil, err
			}
			prep.perThr[thr] = out
			return out, nil
		}
		if oneShotMiner == nil {
			oneShotMiner = itemsets.NewMinerWeighted(mineLog.AsTable().Complement(), mineLog.Weights)
		}
		return runMiner(oneShotMiner, thr)
	}

	search := func(thr int) (Solution, bool, error) {
		tr.Count("mfi.rounds", 1)
		tr.Event("mfi.threshold", int64(thr))
		mfis, err := mine(thr)
		if err != nil {
			return Solution{}, false, fmt.Errorf("core: mfi: %w", err)
		}
		stats.MFIs += len(mfis)
		stats.Threshold = thr
		tr.Count("mfi.itemsets", int64(len(mfis)))
		before := stats.Candidates
		sp := tr.StartSpan("enumerate")
		sol, ok, err := s.bestAtLevel(ctx, n, mfis, &stats)
		sp.End()
		tr.Count("mfi.candidates", int64(stats.Candidates-before))
		return sol, ok, err
	}

	if size == 0 {
		// No satisfiable queries at all: fall back immediately.
		return s.fallback(n, stats), nil
	}

	// Why a hit at any threshold is already optimal (given complete mining):
	// every level-(M−m) candidate inside a maximal frequent itemset has
	// support ≥ thr, so a hit proves OPT ≥ thr; and the optimal I* = ~t* is
	// then itself frequent at thr, hence inside some mined maximal set and
	// enumerated. So the first threshold that yields anything yields OPT.
	if s.Threshold > 0 {
		sol, ok, err := search(s.Threshold)
		if err != nil {
			return Solution{}, err
		}
		if ok {
			sol.Optimal = s.Backend == BackendExactDFS
			sol.Stats = stats
			return sol, nil
		}
		return s.fallback(n, stats), nil
	}

	thr := s.InitialThreshold
	if thr <= 0 || thr > size {
		// Adaptive default: seed the threshold with a greedy lower bound
		// instead of the paper's "high value". Any search hit is already
		// optimal (see above), and the bound guarantees a hit on the first
		// round whenever any compression satisfies ≥ 1 query — the halving
		// loop below remains only as the safety net for walk-backend misses
		// and explicit InitialThreshold choices.
		thr = s.greedyLowerBound(n)
		if thr < 1 {
			thr = 1
		}
		if thr > size {
			thr = size
		}
		if prep != nil {
			// Quantize to a power of two so repeated solves over the same log
			// hit the per-threshold mining cache instead of mining afresh for
			// every tuple's distinct greedy bound. Lowering the threshold
			// never loses the optimum (any hit is optimal; see above).
			thr = floorPow2(thr)
		}
	}
	for {
		sol, ok, err := search(thr)
		if err != nil {
			return Solution{}, err
		}
		if ok {
			sol.Optimal = s.Backend == BackendExactDFS
			sol.Stats = stats
			return sol, nil
		}
		if thr == 1 {
			return s.fallback(n, stats), nil
		}
		thr /= 2
		if thr < 1 {
			thr = 1
		}
	}
}

func (s MaxFreqItemSets) walkOpts() itemsets.WalkOptions {
	opts := s.Walk
	if opts.Rng == nil {
		opts.Rng = rand.New(rand.NewSource(s.Seed + 1))
	}
	return opts
}

// floorPow2 returns the largest power of two ≤ x (x ≥ 1).
func floorPow2(x int) int {
	p := 1
	for p*2 <= x {
		p *= 2
	}
	return p
}

// greedyLowerBound scores the frequency-greedy compression over the
// restricted log, giving a cheap valid lower bound on the optimum used to
// seed the adaptive threshold.
func (s MaxFreqItemSets) greedyLowerBound(n normalized) int {
	freq := n.log.AttrFrequencies()
	return n.score(n.keep(topByFreq(n.ones, freq, n.m)))
}

// bestAtLevel implements the level-(M−m) search of §IV.C (Fig 4): among all
// subsets I with |I| = M−m, I ⊇ ~t, of any mined maximal frequent itemset,
// find the one with maximum frequency; the compression is ~I. In direct
// (un-complemented) terms: for each maximal set J ⊇ ~t with |J| ≥ M−m, the
// candidates are the compressions t' with ~J ⊆ t' ⊆ t∧J, |t'| = m, scored by
// their exact satisfied-query count. The enumeration mutates one shared
// vector (no allocation per candidate); duplicate candidates across maximal
// sets are rescored rather than deduplicated — scoring is cheaper than
// tracking.
//
// Cancellation is polled once per maximal set while bounding and every
// pollMask+1 scored candidates while enumerating.
func (s MaxFreqItemSets) bestAtLevel(ctx context.Context, n normalized, mfis []itemsets.ItemsetCount, stats *Stats) (Solution, bool, error) {
	width := n.in.Tuple.Width()
	notT := n.in.Tuple.Not()
	levelSize := width - n.m

	// First pass: per maximal set, compute an upper bound on what any of its
	// level-(M−m) subsets can satisfy — the number of queries fitting inside
	// required ∪ pool with at most `need` pool attributes. Sets are then
	// searched in descending bound order and the enumeration stops as soon
	// as the bound cannot beat the incumbent; with thousands of maximal sets
	// (wide tuples, low thresholds) this prunes nearly all of them without
	// giving up exactness.
	type cand struct {
		required bitvec.Vector
		pool     []int
		need     int
		ub       int
	}
	cands := make([]cand, 0, len(mfis))
	for mi, mfi := range mfis {
		if mi&pollMask == 0 {
			if err := pollCtx(ctx); err != nil {
				return Solution{}, false, fmt.Errorf("core: mfi: %w", err)
			}
		}
		j := mfi.Items
		if j.Count() < levelSize || !notT.SubsetOf(j) {
			continue
		}
		required := j.Not()
		poolVec := n.in.Tuple.And(j)
		need := n.m - required.Count()
		if need < 0 || need > poolVec.Count() {
			continue // cannot hit level M−m inside this maximal set
		}
		ub := 0
		for qi, q := range n.log.Queries {
			outside := q.AndNot(required)
			if !outside.SubsetOf(poolVec) {
				continue // needs an attribute no subset of this set keeps
			}
			if outside.Count() <= need {
				ub += n.log.Weight(qi)
			}
		}
		cands = append(cands, cand{required: required, pool: poolVec.Ones(), need: need, ub: ub})
	}
	// Stable on ub ties, so the search order — and with it the first-maximum
	// tie-break — is a pure function of the mined list's canonical order, not
	// of sorting internals (the determinism contract of DESIGN.md §11 rests
	// on this).
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].ub > cands[b].ub })

	best := Solution{}
	found := false
	var ctxErr error
	for _, c := range cands {
		if found && c.ub <= best.Satisfied {
			break // sorted descending: nothing below can improve
		}
		kept := c.required // mutated in place by the recursion
		var rec func(start, depth int)
		rec = func(start, depth int) {
			if ctxErr != nil {
				return
			}
			if depth == c.need {
				if stats.Candidates&pollMask == 0 {
					if ctxErr = pollCtx(ctx); ctxErr != nil {
						return
					}
				}
				stats.Candidates++
				sat := n.score(kept)
				if !found || sat > best.Satisfied {
					best = Solution{Kept: kept.Clone(), Satisfied: sat}
					found = true
				}
				return
			}
			for i := start; i <= len(c.pool)-(c.need-depth); i++ {
				kept.Set(c.pool[i])
				rec(i+1, depth+1)
				kept.Clear(c.pool[i])
			}
		}
		rec(0, 0)
		if ctxErr != nil {
			return Solution{}, false, fmt.Errorf("core: mfi: %w", ctxErr)
		}
	}
	return best, found, nil
}

// fallback returns the frequency-greedy compression used when no compression
// satisfies even one query (or none meets a fixed threshold): the m most
// frequent attributes of the tuple. Satisfied is computed exactly (usually
// zero in the adaptive case).
func (s MaxFreqItemSets) fallback(n normalized, stats Stats) Solution {
	freq := n.fullFreq()
	kept := n.keep(topByFreq(n.ones, freq, n.m))
	return Solution{Kept: kept, Satisfied: n.score(kept), Stats: stats}
}
