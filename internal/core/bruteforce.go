package core

import (
	"context"
	"math"
	"math/bits"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/obsv"
	"standout/internal/par"
)

// BruteForce is the optimal baseline of §IV.A: the best of all C(|t|, m)
// combinations of m attributes of the new tuple, the first in lexicographic
// order among equals. It is the ground truth against which every other
// solver is tested.
//
// Over the instance's own state it does not score the combinations one by
// one. It searches them depth-first in lexicographic order over the tuple's
// budget rows, the queries q ⊆ t with |q| ≤ m, the only ones a compression
// of m attributes can satisfy, and skips every subtree whose rows cannot
// beat the best compression found so far (budgetRows). Each search node
// costs one pass over the budget rows' bitmaps. The search scores C(|t|, m)
// leaves at worst, and few when few queries fit the budget or a good
// compression is found early. Over any other Counter (SolveCounter) it
// scores all C(|t|, m) combinations in Satisfied calls.
type BruteForce struct {
	// Workers parallelizes the search by sharding it on its leading
	// combination elements; ≤ 1 (the zero value) searches sequentially. Any
	// worker count returns results bit-identical to the sequential search:
	// each shard keeps its own best, and the shards' bests are merged in
	// lexicographic shard order under the same strict-improvement rule the
	// sequential search uses, so the winner is the first candidate in
	// lexicographic order achieving the maximum either way (DESIGN.md §11).
	// A shard starts with no best, so sharding pays only on searches of
	// several milliseconds or more; shorter ones run slower than
	// sequentially.
	Workers int
}

// Name implements Solver.
func (BruteForce) Name() string { return "BruteForce-SOC-CB-QL" }

// Solve implements Solver.
func (b BruteForce) Solve(in Instance) (Solution, error) {
	return b.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. The search polls ctx every pollMask+1
// nodes, each one pass over the budget rows, so cancellation latency is
// bounded by 64 such passes regardless of how large C(|t|, m) is.
func (s BruteForce) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	return solveCounting(ctx, s, in)
}

// bruteBatch bounds the candidates of one Satisfied call: large enough to
// amortize a coordinator's scatter round trip, small enough to keep each
// call's work on a shard preemptible.
const bruteBatch = 256

// count searches the budget rows when c is the instance's own state and
// 0 < m < |t|, and otherwise issues, when m < |t|, Satisfied calls of up to
// bruteBatch candidates in lexicographic order (one call of the empty
// compression when m = 0). Either way the first candidate achieving the
// maximum wins, so the Solution is the same (FuzzBruteSearchAgrees).
func (s BruteForce) count(ctx context.Context, c Counter, tuple bitvec.Vector, ones []int, m int, tr *obsv.Trace) (Solution, error) {
	if m >= len(ones) {
		return whole(ctx, c, tuple)
	}
	sp := tr.StartSpan("enumerate")
	var best Solution
	var scored int
	var err error
	if n, ok := c.(*normalized); ok && m > 0 {
		best, scored, err = s.search(ctx, n, m)
	} else {
		best, scored, err = enumerate(ctx, c, tuple.Width(), ones, m)
	}
	sp.End()
	tr.Count("bruteforce.scored", int64(scored))
	if err != nil {
		return Solution{}, err
	}
	best.Optimal = true
	best.Stats.Candidates = combinations(len(ones), m, math.MaxInt)
	tr.Count("bruteforce.candidates", int64(best.Stats.Candidates))
	return best, nil
}

// enumerate walks the m-combinations of ones in lexicographic order,
// scoring them in Satisfied calls of up to bruteBatch candidates, and
// returns the first-maximum candidate plus the number of candidates scored.
// The batch vectors, one allocation for as many as one call can take, are
// refilled in place between calls; only a new best is cloned.
func enumerate(ctx context.Context, c Counter, width int, ones []int, m int) (Solution, int, error) {
	comb := make([]int, m)
	var best Solution
	candidates := 0
	batch := vectors(width, combinations(len(ones), m, bruteBatch))
	n := 0
	flush := func() error {
		counts, err := c.Satisfied(ctx, batch[:n])
		if err != nil {
			return err
		}
		for i, sat := range counts {
			if candidates == 0 || sat > best.Satisfied {
				best.Kept = batch[i].Clone()
				best.Satisfied = sat
			}
			candidates++
		}
		n = 0
		return nil
	}

	var rec func(start, depth int) error
	rec = func(start, depth int) error {
		if depth == m {
			v := batch[n]
			clear(v.Words())
			for _, idx := range comb {
				v.Set(ones[idx])
			}
			if n++; n == bruteBatch {
				return flush()
			}
			return nil
		}
		for i := start; i <= len(ones)-(m-depth); i++ {
			comb[depth] = i
			if err := rec(i+1, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0, 0)
	if err == nil && n > 0 {
		err = flush()
	}
	if err != nil {
		return Solution{}, candidates, err
	}
	return best, candidates, nil
}

// combinations returns C(n, k), or limit when that is smaller. No
// intermediate product overflows, so limit may be math.MaxInt.
func combinations(n, k, limit int) int {
	k = min(k, n-k) // C(n, i) grows with i up to n/2, so the cap may cut short
	c := uint64(1)
	for i := 0; i < k; i++ {
		// c·(n−i)/(i+1) is C(n, i+1), exact in 128 bits.
		hi, lo := bits.Mul64(c, uint64(n-i))
		if hi >= uint64(i+1) {
			return limit // the quotient needs more than 64 bits
		}
		if c, _ = bits.Div64(hi, lo, uint64(i+1)); c >= uint64(limit) {
			return limit
		}
	}
	return int(c)
}

// search is BruteForce over the instance's own state for 0 < m < |t|: a
// depth-first search of n's budget rows, sharded on the leading combination
// elements when s.Workers > 1. It returns the first-maximum candidate and
// the number of leaves scored.
func (s BruteForce) search(ctx context.Context, n *normalized, m int) (Solution, int, error) {
	b := n.budgetRows(m)
	if s.Workers <= 1 {
		r := searchRun{budgetRows: b, ws: b.depth, comb: make([]int, 2*m)}
		if err := r.descend(ctx, 0, 0, b.root); err != nil {
			return Solution{}, r.scored, err
		}
		return r.solution(n), r.scored, nil
	}
	// One shard per feasible comb[0] (m == 1) or (comb[0], comb[1]) pair
	// (m ≥ 2), each searched with its own best, then merged in shard order.
	// The shards' prefixes and combinations share one slab; the working
	// sets, the large buffers, are one per worker, passed on through free.
	lead := min(m, 2)
	stride := lead + 2*m
	shards := make([]searchRun, 0, combinations(len(n.ones)-m+lead, lead, math.MaxInt))
	ints := make([]int, cap(shards)*stride)
	shard := func(prefix ...int) {
		k := len(shards) * stride
		copy(ints[k:], prefix)
		shards = append(shards, searchRun{budgetRows: b, prefix: ints[k:][:lead], comb: ints[k+lead:][:2*m]})
	}
	for i := 0; i <= len(n.ones)-m; i++ {
		if m == 1 {
			shard(i)
			continue
		}
		for j := i + 1; j <= len(n.ones)-(m-1); j++ {
			shard(i, j)
		}
	}
	workers := min(s.Workers, len(shards))
	// A shard takes a buffer from free, or makes one when free is empty, so
	// at most workers buffers exist and returning one never blocks.
	free := make(chan []uint64, workers)
	free <- b.depth
	res := par.Run(ctx, len(shards), par.Options{Workers: workers}, func(ctx context.Context, i int) error {
		var ws []uint64
		select {
		case ws = <-free:
		default:
			ws = make([]uint64, m*b.nw)
		}
		defer func() { free <- ws }()
		r := &shards[i]
		r.ws = ws
		return r.descend(ctx, 0, 0, b.root)
	})
	scored := 0
	var best *searchRun
	for i := range shards {
		r := &shards[i]
		scored += r.scored
		if r.found && (best == nil || r.sat > best.sat) {
			best = r
		}
	}
	if res.First != nil {
		return Solution{}, scored, res.First.Err
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, scored, err // shards skipped by an outside cancellation
	}
	return best.solution(n), scored, nil
}

// budgetRows is the local search's view of the log: the tuple's budget
// rows, the queries q ⊆ t with |q| ≤ m, as one bitmap per tuple attribute
// over those rows. The search keeps, per node, the working set of the rows
// holding no attribute its combination has skipped. A compression keeping m
// attributes satisfies exactly the budget rows that hold none of the others,
// so a leaf's count is its working set minus the rows holding an attribute
// after its last pick, and a node's working-set weight bounds every leaf
// below it.
type budgetRows struct {
	n, m    int      // |t| and the budget, m < n
	nw      int      // words per bitmap
	cols    []uint64 // cols[j*nw:][:nw]: the rows holding ones[j]
	suf     []uint64 // suf[j*nw:][:nw]: the rows holding any of ones[j:], for j ≤ n
	root    []uint64 // every row
	depth   []uint64 // the sequential search's working sets, one bitmap per depth
	weights []int    // per row; nil for an unweighted log
}

// budgetRows collects the budget rows of n for budget m < |t| into one
// slab.
func (n *normalized) budgetRows(m int) *budgetRows {
	log, ids := n.budgetQueries(m)
	t := len(n.ones)
	nw := (len(ids) + 63) / 64
	slab := make([]uint64, (2*t+2+m)*nw)
	b := &budgetRows{
		n:     t,
		m:     m,
		nw:    nw,
		cols:  slab[:t*nw],
		suf:   slab[t*nw : (2*t+1)*nw],
		root:  slab[(2*t+1)*nw : (2*t+2)*nw],
		depth: slab[(2*t+2)*nw:],
	}
	if log.Weights != nil {
		b.weights = make([]int, len(ids))
	}
	for r, qi := range ids {
		word, bit := r/64, uint64(1)<<(r%64)
		b.root[word] |= bit
		tuplePositions(log.Queries[qi], n.in.Tuple, func(j int) { b.cols[j*nw+word] |= bit })
		if b.weights != nil {
			b.weights[r] = log.Weights[qi]
		}
	}
	for j := t - 1; j >= 0; j-- {
		suf := b.suf[j*nw : (j+1)*nw]
		for w := range suf {
			suf[w] = b.cols[j*nw+w] | b.suf[(j+1)*nw+w]
		}
	}
	return b
}

// budgetQueries returns the ids, in log order, of n's queries q ⊆ t of at
// most m attributes, and the log they index: the instance's log, through
// the candidate sets, with an index attached, else the restricted log.
func (n *normalized) budgetQueries(m int) (*dataset.QueryLog, []int) {
	if n.segs == nil {
		var ids []int
		for qi, q := range n.log.Queries {
			if q.Count() <= m {
				ids = append(ids, qi)
			}
		}
		return n.log, ids
	}
	log, cands := n.in.Log, 0
	for _, s := range n.segs {
		cands += s.cand.Count()
	}
	ids := make([]int, 0, cands)
	for si, s := range n.segs {
		off := n.prep.seg.Offset(si)
		s.cand.Range(func(qi int) bool {
			if log.Queries[off+qi].Count() <= m {
				ids = append(ids, off+qi)
			}
			return true
		})
	}
	return log, ids
}

// tuplePositions calls yield with the position, in tuple's ascending list
// of attributes, of each attribute of q ⊆ tuple.
func tuplePositions(q, tuple bitvec.Vector, yield func(j int)) {
	tw, base := tuple.Words(), 0
	for wi, w := range q.Words() {
		for ; w != 0; w &= w - 1 {
			yield(base + bits.OnesCount64(tw[wi]&(1<<bits.TrailingZeros64(w)-1)))
		}
		base += bits.OnesCount64(tw[wi])
	}
}

// weight returns the total weight of the rows in set.
func (b *budgetRows) weight(set []uint64) int {
	t := 0
	if b.weights == nil {
		for _, w := range set {
			t += bits.OnesCount64(w)
		}
		return t
	}
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			t += b.weights[wi*64+bits.TrailingZeros64(w)]
		}
	}
	return t
}

// leaf returns the weight of the working set ws and of the rows of ws
// holding none of ones[j:]: a leaf's bound and its count.
func (b *budgetRows) leaf(ws []uint64, j int) (bound, count int) {
	suf := b.suf[j*b.nw : (j+1)*b.nw]
	suf = suf[:len(ws)]
	if b.weights == nil {
		for wi, w := range ws {
			bound += bits.OnesCount64(w)
			count += bits.OnesCount64(w &^ suf[wi])
		}
		return bound, count
	}
	for wi, w := range ws {
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			bound += b.weights[wi*64+i]
			if suf[wi]&(1<<i) == 0 {
				count += b.weights[wi*64+i]
			}
		}
	}
	return bound, count
}

// searchRun is one depth-first search over budget rows: the whole
// combination space, or the shard of it whose leading positions are prefix.
type searchRun struct {
	*budgetRows
	prefix []int
	ws     []uint64 // working sets, one bitmap per depth
	comb   []int    // comb[:m]: the current combination; comb[m:]: the best
	sat    int      // the best combination's count
	found  bool
	scored int // leaves scored
	nodes  int // nodes visited, for the cancellation poll
}

// descend visits the children of a node at depth d, whose working set is
// ws: each position i ≥ start that comb[d] can take. Child i skips the
// positions start..i−1, so its working set is ws minus their columns, and
// each later child's set is a subset of the one before. So once a child's
// weight is no more than the best count, neither it nor any later sibling
// can beat the best, and the loop ends: the first maximum in lexicographic
// order still wins.
func (r *searchRun) descend(ctx context.Context, d, start int, ws []uint64) error {
	nw := r.nw
	cur := r.ws[d*nw : (d+1)*nw]
	copy(cur, ws)
	lo, hi := start, r.n-(r.m-d)
	if d < len(r.prefix) {
		lo, hi = r.prefix[d], r.prefix[d]
	}
	for i := start; i <= hi; i++ {
		if i > start {
			col := r.cols[(i-1)*nw : i*nw]
			col = col[:len(cur)]
			for w := range cur {
				cur[w] &^= col[w]
			}
		}
		if i < lo {
			continue
		}
		if r.nodes++; r.nodes&pollMask == 0 {
			if err := pollCtx(ctx); err != nil {
				return err
			}
		}
		r.comb[d] = i
		if d == r.m-1 {
			bound, count := r.leaf(cur, i+1)
			if r.found && bound <= r.sat {
				return nil
			}
			r.scored++
			if !r.found || count > r.sat {
				r.found, r.sat = true, count
				copy(r.comb[r.m:], r.comb[:r.m])
			}
			continue
		}
		if r.found && r.weight(cur) <= r.sat {
			return nil
		}
		if err := r.descend(ctx, d+1, i+1, cur); err != nil {
			return err
		}
	}
	return nil
}

// solution returns the run's best combination as a Solution of n.
func (r *searchRun) solution(n *normalized) Solution {
	kept := n.keep(nil)
	for _, j := range r.comb[r.m:] {
		kept.Set(n.ones[j])
	}
	return Solution{Kept: kept, Satisfied: r.sat}
}
