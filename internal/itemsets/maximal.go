package itemsets

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"standout/internal/bitvec"
	"standout/internal/obsv"
	"standout/internal/par"
)

// pollCtx reports a pending cancellation without blocking.
func pollCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Maximal frequent itemset miners. A frequent itemset is maximal when no
// strict superset is frequent. On the dense complemented query logs of
// §IV.C, all maximal frequent itemsets sit near the top of the Boolean
// lattice, which is what makes the paper's top-down two-phase walk fast.

// MaximalDFS computes the exact set of maximal frequent itemsets with
// support ≥ minSup by depth-first search with tidset propagation, the
// all-candidates lookahead (as in MAFIA/GenMax) and subsumption pruning
// against already-found maximal sets. It is exponential in the worst case
// and serves as the verification oracle and as the exact backend of
// MaxFreqItemSets-SOC-CB-QL for moderate widths.
func (m *Miner) MaximalDFS(minSup int) []ItemsetCount {
	out, _ := m.MaximalDFSContext(context.Background(), minSup)
	return out
}

// MaximalDFSContext is MaximalDFS with cooperative cancellation: the DFS
// polls ctx on every recursive call (each call performs at least one support
// count, so the poll is amortized noise) and returns ctx's error with a nil
// list as soon as it sees it. The mining is worst-case exponential, which is
// exactly why a deadline belongs here.
//
// The returned list is canonically ordered by SortBySize — a total order —
// so equal inputs produce byte-equal output regardless of the mining
// schedule; MaximalDFSParallelContext returns the identical list.
func (m *Miner) MaximalDFSContext(ctx context.Context, minSup int) ([]ItemsetCount, error) {
	return m.MaximalDFSParallelContext(ctx, minSup, 1)
}

// MaximalDFSParallelContext is MaximalDFSContext fanned over up to `workers`
// goroutines: the DFS root is expanded once, then its top-level branches run
// concurrently on the scheduler of internal/par, sharing one found-set store
// for cross-branch subsumption pruning. The pruning stays sound under any
// interleaving — a subtree whose ceiling is contained in an already-found
// frequent set holds no new maximal set — and the final canonicalization
// (dedup, maximality filter, SortBySize) makes the returned list identical
// to the sequential one for any worker count. workers ≤ 1 mines on the
// calling goroutine with no synchronization in the store.
func (m *Miner) MaximalDFSParallelContext(ctx context.Context, minSup, workers int) ([]ItemsetCount, error) {
	return m.MaximalDFSFloorContext(ctx, minSup, 0, workers)
}

// MaximalDFSFloorContext is MaximalDFSParallelContext restricted to maximal
// sets of at least floor items: it returns exactly MaximalDFSParallelContext's
// list filtered by that size, with the same supports in the same order. A
// node whose ceiling — its set plus every viable extension, after
// parent-equivalent items are absorbed — has fewer than floor items holds no
// such set, so its subtree is pruned (MaxMiner's head/tail bound; Bayardo,
// SIGMOD 1998). A floor ≤ 0 mines the whole lattice.
func (m *Miner) MaximalDFSFloorContext(ctx context.Context, minSup, floor, workers int) ([]ItemsetCount, error) {
	if minSup < 1 {
		minSup = 1
	}
	if m.totalWeight < minSup {
		return nil, nil // not even the empty itemset is frequent
	}
	// Fail-first item order: least frequent items first.
	order := itemOrder(m.singletonSupports())

	d := &dfsRun{m: m, minSup: minSup, floor: floor, workers: workers}
	err := (&dfsWalker{d: d}).rec(ctx, bitvec.New(m.width), m.fullRowset(), m.totalWeight, order, 0)
	obsv.FromContext(ctx).Count("itemsets.dfs_nodes", d.nodes.Load())
	if err != nil {
		// The sets found so far are an incomplete answer no caller reads;
		// canonicalizing them would only delay the error.
		return nil, err
	}

	// The DFS can emit the empty itemset when nothing else is frequent; that
	// is the correct answer (the empty set is maximal) and callers handle it.
	// Every found set is frequent and every maximal set of at least floor
	// items is found, so canonicalization leaves exactly those.
	return canonicalMaximal(d.store.found), nil
}

// dfsStore accumulates found itemsets, shared by concurrent DFS branches.
// Reads for subsumption racing against appends are sound: a stale read can
// only miss a pruning opportunity, never prune wrongly.
type dfsStore struct {
	mu     sync.Mutex
	locked bool // take mu (parallel run); sequential runs skip the lock
	found  []ItemsetCount
}

func (s *dfsStore) subsumed(items bitvec.Vector) bool {
	if s.locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for _, f := range s.found {
		if items.SubsetOf(f.Items) {
			return true
		}
	}
	return false
}

func (s *dfsStore) add(it ItemsetCount) {
	if s.locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.found = append(s.found, it)
}

// dfsRun is one maximal-DFS mining run: the miner, the threshold, the size
// floor, the shared store and the parallelism budget spent at the root.
type dfsRun struct {
	m       *Miner
	minSup  int
	floor   int
	workers int
	store   dfsStore
	nodes   atomic.Int64
}

type dfsExt struct {
	item int
	sup  int
}

// dfsFrame holds the working buffers of one DFS depth, which every node at
// that depth reuses: the node's extensions, its itemset once it absorbs an
// item, and what it hands each child — the child's itemset, rowset and
// candidates. set holds the lookahead's itemset, then each child's itemset
// with every later extension, for the subsumption checks.
type dfsFrame struct {
	exts []dfsExt
	cur  bitvec.Vector
	next bitvec.Vector
	set  bitvec.Vector
	rows []uint64
	rest []int
}

// dfsWalker is one goroutine's descent of a dfsRun, with one frame per
// depth, so a node allocates only the sets it records. Each parallel root
// branch walks with its own.
type dfsWalker struct {
	d      *dfsRun
	frames []*dfsFrame
}

// frame returns depth's frame, making it on first use.
func (w *dfsWalker) frame(depth int) *dfsFrame {
	for len(w.frames) <= depth {
		w.frames = append(w.frames, nil)
	}
	if w.frames[depth] == nil {
		m := w.d.m
		w.frames[depth] = &dfsFrame{
			exts: make([]dfsExt, 0, m.width),
			cur:  bitvec.New(m.width),
			next: bitvec.New(m.width),
			set:  bitvec.New(m.width),
			rows: make([]uint64, m.words),
			rest: make([]int, 0, m.width),
		}
	}
	return w.frames[depth]
}

// rec mines the subtree of the node (current, curRows): current's rows are
// curRows, of weight curSup, and cand lists the items it may add. It writes
// none of its arguments.
func (w *dfsWalker) rec(ctx context.Context, current bitvec.Vector, curRows []uint64, curSup int, cand []int, depth int) error {
	if err := pollCtx(ctx); err != nil {
		return err
	}
	d := w.d
	d.nodes.Add(1)
	m := d.m
	f := w.frame(depth)
	// Filter candidates to those frequent in the current context, and
	// absorb parent-equivalent items on the way (PEP, as in MAFIA):
	// an item supported by every row of the current context belongs to
	// every maximal superset in this subtree, so it is added outright
	// instead of branched on. On dense tables (the §IV.C regime) this
	// collapses otherwise-exponential subtrees.
	exts, absorbed := f.exts[:0], false
	for _, j := range cand {
		s := m.and(curRows, m.cols[j])
		if s < d.minSup {
			continue
		}
		if s == curSup {
			if !current.Get(j) {
				if !absorbed { // the first absorbed item: current becomes frame's own
					copy(f.cur.Words(), current.Words())
					current, absorbed = f.cur, true
				}
				current.Set(j)
			}
			continue
		}
		exts = append(exts, dfsExt{j, s})
	}
	f.exts = exts
	ceiling := current.Count() + len(exts) // |current ∪ exts|: exts miss current
	if ceiling < d.floor {
		return nil
	}
	if len(exts) == 0 {
		if !d.store.subsumed(current) {
			d.store.add(ItemsetCount{Items: current.Clone(), Support: curSup})
		}
		return nil
	}
	// Fail-first: least-supported extensions explored first.
	slices.SortFunc(exts, func(a, b dfsExt) int {
		return cmp.Or(cmp.Compare(a.sup, b.sup), cmp.Compare(a.item, b.item))
	})

	// Lookahead: if current ∪ all viable extensions is frequent, it is the
	// unique maximal set below this node.
	all, allRows := f.set, f.rows
	copy(all.Words(), current.Words())
	copy(allRows, curRows)
	for _, e := range exts {
		all.Set(e.item)
		intersect(allRows, m.cols[e.item])
	}
	if s := m.pop(allRows); s >= d.minSup {
		if !d.store.subsumed(all) {
			d.store.add(ItemsetCount{Items: all.Clone(), Support: s})
		}
		return nil
	}

	if depth == 0 && d.workers > 1 && len(exts) > 1 {
		return d.branchesParallel(ctx, current, curRows, exts, ceiling)
	}
	for i := range exts {
		if ceiling-i < d.floor {
			break // this child's ceiling, and every later one's, is below the floor
		}
		if err := w.child(ctx, current, curRows, exts, i, depth); err != nil {
			return err
		}
	}
	return nil
}

// child descends from the node (current, curRows) at depth into its i-th
// extension, through depth's frame, unless a found set already holds the
// child plus every later extension: then the subtree adds nothing
// (subsumption pruning).
func (w *dfsWalker) child(ctx context.Context, current bitvec.Vector, curRows []uint64, exts []dfsExt, i, depth int) error {
	f := w.frame(depth)
	e := exts[i]
	next, withRest := f.next, f.set
	copy(next.Words(), current.Words())
	next.Set(e.item)
	copy(withRest.Words(), next.Words())
	for _, e2 := range exts[i+1:] {
		withRest.Set(e2.item)
	}
	if w.d.store.subsumed(withRest) {
		return nil
	}
	copy(f.rows, curRows)
	intersect(f.rows, w.d.m.cols[e.item])
	f.rest = f.rest[:0]
	for _, e2 := range exts[i+1:] {
		f.rest = append(f.rest, e2.item)
	}
	return w.rec(ctx, next, f.rows, e.sup, f.rest, depth+1)
}

// branchesParallel distributes the root's branch subtrees over internal/par
// workers. Each branch walks with its own buffers; only the found store is
// shared, behind its mutex.
func (d *dfsRun) branchesParallel(ctx context.Context, current bitvec.Vector, curRows []uint64, exts []dfsExt, ceiling int) error {
	d.store.locked = true
	res := par.Run(ctx, len(exts), par.Options{Workers: d.workers}, func(ctx context.Context, i int) error {
		if ceiling-i < d.floor {
			return nil // this branch's ceiling is below the floor
		}
		return (&dfsWalker{d: d}).child(ctx, current, curRows, exts, i, 0)
	})
	d.store.locked = false
	if res.First != nil {
		return res.First.Err
	}
	return ctx.Err() // branches skipped by an outside cancellation
}

// canonicalMaximal reduces a raw found list to the canonical answer: exact
// duplicates collapse, sets strictly contained in another survivor drop
// (concurrent branches can emit a set before its superset is known), and the
// result sorts by SortBySize — a total order, so the output is a pure
// function of the input SET of itemsets.
func canonicalMaximal(found []ItemsetCount) []ItemsetCount {
	if found == nil {
		return nil
	}
	seen := make(map[string]struct{}, len(found))
	uniq := found[:0]
	for _, f := range found {
		k := f.Items.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		uniq = append(uniq, f)
	}
	out := make([]ItemsetCount, 0, len(uniq))
	for i, f := range uniq {
		maximal := true
		for j, g := range uniq {
			if i != j && f.Items.SubsetOf(g.Items) && !g.Items.SubsetOf(f.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, f)
		}
	}
	SortBySize(out)
	return out
}

// WalkOptions tunes the random-walk maximal miners.
type WalkOptions struct {
	// MaxIters caps the number of walks; 0 means 10_000.
	MaxIters int
	// MinIters is a floor on the number of walks before the stopping rule may
	// fire. The paper's rule alone can stop after two walks that happen to
	// land on the same maximal set; a floor proportional to the lattice width
	// makes missing a maximal set much less likely. 0 means max(32, 4·width);
	// set to 1 to reproduce the paper's rule verbatim.
	MinIters int
	// MinConfirm is the Good–Turing-style stopping rule of §IV.C: stop once
	// every discovered maximal itemset has been discovered at least this many
	// times. 0 means 2, matching the paper ("discovered at least twice").
	MinConfirm int
	// Rng drives the walks; nil means a fixed-seed source (deterministic).
	Rng *rand.Rand
}

func (o WalkOptions) withDefaults(width int) WalkOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 10_000
	}
	if o.MinIters == 0 {
		o.MinIters = 4 * width
		if o.MinIters < 32 {
			o.MinIters = 32
		}
	}
	if o.MinConfirm == 0 {
		o.MinConfirm = 2
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// MaximalRandomWalk runs the paper's two-phase random walk (§IV.C, Fig 3):
// the Down Phase removes random items from the full itemset until it becomes
// frequent, the Up Phase adds random items while staying frequent, yielding
// one maximal frequent itemset per walk. Walks repeat until the stopping
// rule fires. With high probability all maximal sets are found when their
// number is small, but the result is not guaranteed complete — use
// MaximalDFS when exactness is required.
func (m *Miner) MaximalRandomWalk(minSup int, opts WalkOptions) []ItemsetCount {
	out, _ := m.walk(context.Background(), minSup, opts, true)
	return out
}

// MaximalRandomWalkContext is MaximalRandomWalk with cooperative
// cancellation, polled once per walk (a walk traverses the lattice in
// milliseconds at most). The walks completed so far are returned with ctx's
// error.
func (m *Miner) MaximalRandomWalkContext(ctx context.Context, minSup int, opts WalkOptions) ([]ItemsetCount, error) {
	return m.walk(ctx, minSup, opts, true)
}

// MaximalRandomWalkBottomUp is the bottom-up baseline of Gunopulos et al.
// [11]: start from a random frequent singleton and only walk up. On dense
// tables it traverses many more lattice levels per walk than the two-phase
// variant; the ablation bench quantifies exactly that.
func (m *Miner) MaximalRandomWalkBottomUp(minSup int, opts WalkOptions) []ItemsetCount {
	out, _ := m.walk(context.Background(), minSup, opts, false)
	return out
}

// MaximalRandomWalkBottomUpContext is MaximalRandomWalkBottomUp with
// cooperative cancellation, polled once per walk.
func (m *Miner) MaximalRandomWalkBottomUpContext(ctx context.Context, minSup int, opts WalkOptions) ([]ItemsetCount, error) {
	return m.walk(ctx, minSup, opts, false)
}

func (m *Miner) walk(ctx context.Context, minSup int, opts WalkOptions, topDown bool) ([]ItemsetCount, error) {
	if minSup < 1 {
		minSup = 1
	}
	if m.totalWeight < minSup {
		return nil, nil
	}
	opts = opts.withDefaults(m.width)

	type discovery struct {
		set   ItemsetCount
		times int
	}
	seen := map[string]*discovery{}
	needConfirm := 0 // number of discoveries with times < MinConfirm

	var ctxErr error
	scratch := newWalkScratch(m)
	walks := int64(0)
	for iter := 0; iter < opts.MaxIters; iter++ {
		if ctxErr = pollCtx(ctx); ctxErr != nil {
			break
		}
		walks++
		var items bitvec.Vector
		var rows []uint64
		if topDown {
			items, rows = m.downPhase(minSup, opts.Rng, scratch)
		} else {
			items, rows = m.randomFrequentSingleton(minSup, opts.Rng)
		}
		sup := m.upPhase(items, rows, minSup, opts.Rng, scratch)

		k := items.Key()
		if d, ok := seen[k]; ok {
			d.times++
			if d.times == opts.MinConfirm {
				needConfirm--
			}
		} else {
			seen[k] = &discovery{set: ItemsetCount{Items: items, Support: sup}, times: 1}
			if opts.MinConfirm > 1 {
				needConfirm++
			}
		}
		if needConfirm == 0 && iter+1 >= opts.MinIters {
			break
		}
	}

	obsv.FromContext(ctx).Count("itemsets.walks", walks)
	out := make([]ItemsetCount, 0, len(seen))
	for _, d := range seen {
		out = append(out, d.set)
	}
	SortBySize(out)
	return out, ctxErr
}

// walkScratch holds per-walk-sequence reusable buffers so the hot walk loop
// allocates only the final itemsets it returns.
type walkScratch struct {
	rows   []uint64 // current supporting rowset
	ones   []int    // current item list (down phase)
	viable []int    // frequent extensions (up phase)
}

func newWalkScratch(m *Miner) *walkScratch {
	return &walkScratch{
		rows:   make([]uint64, m.words),
		ones:   make([]int, 0, m.width),
		viable: make([]int, 0, m.width),
	}
}

// resetFull fills rows with the all-rows bitmap.
func (m *Miner) resetFull(rows []uint64) {
	for w := range rows {
		rows[w] = ^uint64(0)
	}
	if m.nrows%64 != 0 && m.words > 0 {
		rows[m.words-1] = (1 << (uint(m.nrows) % 64)) - 1
	}
}

// supportInto recomputes rows = ∩ cols[items] and returns its support.
func (m *Miner) supportInto(rows []uint64, items []int) int {
	m.resetFull(rows)
	for _, j := range items {
		intersect(rows, m.cols[j])
	}
	return m.pop(rows)
}

// downPhase walks from the full itemset down the lattice, removing uniformly
// random items until the itemset becomes frequent. Returns the itemset and
// its supporting rowset (owned by scratch; consumed before the next walk).
func (m *Miner) downPhase(minSup int, rng *rand.Rand, sc *walkScratch) (bitvec.Vector, []uint64) {
	items := bitvec.New(m.width).Not() // full itemset
	sc.ones = sc.ones[:0]
	for j := 0; j < m.width; j++ {
		sc.ones = append(sc.ones, j)
	}
	for {
		if m.supportInto(sc.rows, sc.ones) >= minSup {
			return items, sc.rows
		}
		if len(sc.ones) == 0 {
			// Empty itemset has support = nrows ≥ minSup (checked by caller).
			return items, sc.rows
		}
		i := rng.Intn(len(sc.ones))
		items.Clear(sc.ones[i])
		sc.ones[i] = sc.ones[len(sc.ones)-1]
		sc.ones = sc.ones[:len(sc.ones)-1]
	}
}

// randomFrequentSingleton picks a uniformly random frequent single item; it
// returns nil rows when no item is frequent (the walk then reports only the
// empty itemset via upPhase, matching [11] on degenerate inputs).
func (m *Miner) randomFrequentSingleton(minSup int, rng *rand.Rand) (bitvec.Vector, []uint64) {
	var frequent []int
	for j := 0; j < m.width; j++ {
		if m.pop(m.cols[j]) >= minSup {
			frequent = append(frequent, j)
		}
	}
	items := bitvec.New(m.width)
	if len(frequent) == 0 {
		return items, m.fullRowset() // empty itemset; up phase will confirm
	}
	j := frequent[rng.Intn(len(frequent))]
	items.Set(j)
	return items, m.rowsetOf(items)
}

// upPhase adds uniformly random items that keep the itemset frequent until
// none remains, mutating items in place; returns the final support. sc may
// be nil (a scratch is then allocated locally).
func (m *Miner) upPhase(items bitvec.Vector, rows []uint64, minSup int, rng *rand.Rand, sc *walkScratch) int {
	if sc == nil {
		sc = newWalkScratch(m)
	}
	for {
		sc.viable = sc.viable[:0]
		for j := 0; j < m.width; j++ {
			if items.Get(j) {
				continue
			}
			if m.and(rows, m.cols[j]) >= minSup {
				sc.viable = append(sc.viable, j)
			}
		}
		if len(sc.viable) == 0 {
			return m.pop(rows)
		}
		j := sc.viable[rng.Intn(len(sc.viable))]
		items.Set(j)
		intersect(rows, m.cols[j])
	}
}

// GoodTuringUnseen returns the Good–Turing estimate of the probability that
// the next random walk discovers a new maximal itemset: the fraction of
// walks whose result was seen exactly once [8]. timesSeen maps each
// discovered set to its discovery count. This is the estimator motivating
// the MinConfirm stopping rule; it is exposed for diagnostics and ablations.
func GoodTuringUnseen(timesSeen map[string]int) float64 {
	singletons, total := 0, 0
	for _, c := range timesSeen {
		if c == 1 {
			singletons++
		}
		total += c
	}
	if total == 0 {
		return 1
	}
	return float64(singletons) / float64(total)
}
