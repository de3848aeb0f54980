package core

import (
	"context"

	"standout/internal/bitvec"
	"standout/internal/obsv"
	"standout/internal/par"
)

// BruteForce is the optimal baseline of §IV.A: it enumerates every
// combination of m attributes of the new tuple and keeps the best. Its cost
// is C(|t|, m) query-log scans, which is only viable for small tuples; it is
// the ground truth against which every other solver is tested.
type BruteForce struct {
	// Workers parallelizes the enumeration by sharding the candidate space on
	// its leading combination elements; ≤ 1 (the zero value) enumerates
	// sequentially. Any worker count returns results bit-identical to the
	// sequential enumeration: shards are merged in lexicographic shard order
	// under the same strict-improvement rule the sequential loop uses, so the
	// winner is the first candidate in lexicographic order achieving the
	// maximum either way (DESIGN.md §11).
	Workers int
}

// Name implements Solver.
func (BruteForce) Name() string { return "BruteForce-SOC-CB-QL" }

// Solve implements Solver.
func (b BruteForce) Solve(in Instance) (Solution, error) {
	return b.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. The enumeration scores candidates in
// Satisfied calls of bruteBatch, each polling ctx every pollMask+1
// candidates, so cancellation latency is bounded by 64 log scans regardless
// of how large C(|t|, m) is.
func (s BruteForce) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	return solveCounting(ctx, s, in)
}

// bruteBatch bounds the candidates of one Satisfied call: large enough to
// amortize a coordinator's scatter round trip, small enough to keep each
// call's work on a shard preemptible.
const bruteBatch = 256

// bfShard enumerates the m-combinations of ones sharing one fixed
// lexicographic prefix (indices into ones), tracking the shard's
// first-maximum candidate.
type bfShard struct {
	prefix [2]int // comb[0] (and comb[1] when m ≥ 2), as indices into ones
	plen   int

	best       Solution
	found      bool
	candidates int
}

// count issues, when m < |t|, Satisfied calls of up to bruteBatch
// candidates in lexicographic order (one call of the empty compression when
// m = 0); the first candidate achieving the maximum wins. Over the
// instance's own state with Workers > 1, prefix shards of the enumeration
// run in parallel, each scoring through its own workspace.
func (s BruteForce) count(ctx context.Context, c Counter, tuple bitvec.Vector, ones []int, m int, tr *obsv.Trace) (Solution, error) {
	if m >= len(ones) {
		return whole(ctx, c, tuple)
	}
	sp := tr.StartSpan("enumerate")
	var best Solution
	var candidates int
	var err error
	if n, ok := c.(*normalized); ok && s.Workers > 1 && m > 0 {
		best, candidates, err = s.enumerateSharded(ctx, n, tuple.Width(), ones, m)
	} else {
		best, candidates, err = enumerate(ctx, c, tuple.Width(), ones, m, bfShard{})
	}
	sp.End()
	tr.Count("bruteforce.candidates", int64(candidates))
	if err != nil {
		return Solution{}, err
	}
	best.Optimal = true
	best.Stats.Candidates = candidates
	return best, nil
}

// enumerate walks the m-combinations of ones in lexicographic order —
// restricted to sh's prefix when sh.plen > 0 — scoring them in Satisfied
// calls of up to bruteBatch candidates, and returns the first-maximum
// candidate plus the number of candidates scored. The batch vectors, one
// allocation for as many as one call can take, are refilled in place
// between calls; only a new best is cloned.
func enumerate(ctx context.Context, c Counter, width int, ones []int, m int, sh bfShard) (Solution, int, error) {
	start := 0
	comb := make([]int, m)
	for d := 0; d < sh.plen; d++ {
		comb[d] = sh.prefix[d]
		start = sh.prefix[d] + 1
	}
	var best Solution
	candidates := 0
	batch := vectors(width, combinations(len(ones)-start, m-sh.plen, bruteBatch))
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
	err := rec(start, sh.plen)
	if err == nil && n > 0 {
		err = flush()
	}
	if err != nil {
		return Solution{}, candidates, err
	}
	return best, candidates, nil
}

// combinations returns C(n, k), or limit when that is smaller.
func combinations(n, k, limit int) int {
	k = min(k, n-k) // C(n, i) grows with i up to n/2, so the cap may cut short
	c := 1
	for i := 0; i < k && c < limit; i++ {
		c = c * (n - i) / (i + 1)
	}
	return min(c, limit)
}

// enumerateSharded splits the combination space on its leading elements —
// one shard per feasible comb[0] (m == 1) or (comb[0], comb[1]) pair (m ≥ 2)
// — fans the shards over internal/par workers, then folds the shard-local
// bests in lexicographic shard order with the same strict-improvement rule
// the sequential loop applies per candidate: an exact reconstruction of the
// sequential first-maximum winner.
func (s BruteForce) enumerateSharded(ctx context.Context, n *normalized, width int, ones []int, m int) (Solution, int, error) {
	var shards []bfShard
	if m == 1 {
		for i := 0; i <= len(ones)-1; i++ {
			shards = append(shards, bfShard{prefix: [2]int{i}, plen: 1})
		}
	} else {
		for i := 0; i <= len(ones)-m; i++ {
			for j := i + 1; j <= len(ones)-(m-1); j++ {
				shards = append(shards, bfShard{prefix: [2]int{i, j}, plen: 2})
			}
		}
	}
	workers := s.Workers
	if workers > len(shards) {
		workers = len(shards)
	}
	// normalized.score writes into its kernel scratches on the indexed path,
	// so each concurrent shard scores through its own, from the prep's free
	// list.
	res := par.Run(ctx, len(shards), par.Options{Workers: workers}, func(ctx context.Context, i int) error {
		sh := &shards[i]
		sc := n.shard()
		defer sc.release()
		best, cands, err := enumerate(ctx, &sc, width, ones, m, *sh)
		if err != nil {
			return err
		}
		sh.best = best
		sh.found = true
		sh.candidates = cands
		return nil
	})
	if res.First != nil {
		return Solution{}, 0, res.First.Err
	}
	var best Solution
	first := true
	candidates := 0
	for _, sh := range shards {
		candidates += sh.candidates
		if !sh.found {
			continue
		}
		if first || sh.best.Satisfied > best.Satisfied {
			best = sh.best
			first = false
		}
	}
	return best, candidates, nil
}
