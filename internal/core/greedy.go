package core

import (
	"context"
	"fmt"
	"sort"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/obsv"
)

// The three greedy heuristics of §IV.D. None is guaranteed optimal; the
// paper's evaluation (and ours, Figs 7/9) shows ConsumeAttr and
// ConsumeAttrCumul are near-optimal in practice while ConsumeQueries is both
// slower and worse.

// ConsumeAttr selects the m attributes of the tuple with the highest
// individual frequencies in the query log.
type ConsumeAttr struct{}

// Name implements Solver.
func (ConsumeAttr) Name() string { return "ConsumeAttr-SOC-CB-QL" }

// Solve implements Solver.
func (s ConsumeAttr) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. ConsumeAttr does a constant number of
// linear passes over the log, so a single up-front cancellation check is the
// only one needed.
func (s ConsumeAttr) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	sol, err := s.solve(ctx, in, obs.tr)
	return obs.end(ctx, sol, err)
}

func (ConsumeAttr) solve(ctx context.Context, in Instance, tr *obsv.Trace) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: consume-attr: %w", err)
	}
	n, err := normalize(ctx, in)
	if err != nil {
		return Solution{}, err
	}
	if n.exact {
		sol := n.full()
		sol.Optimal = true
		return sol, nil
	}
	// Per §IV.D the frequencies come from the full query log, not just the
	// queries the tuple can satisfy; an attached index has them precomputed.
	sp := tr.StartSpan("select")
	freq := n.fullFreq()
	picked := topByFreq(n.ones, freq, n.m)
	kept := n.keep(picked)
	sp.End()
	tr.Count("greedy.rescans", 1) // one frequency pass over the whole log
	return Solution{Kept: kept, Satisfied: n.score(kept)}, nil
}

// topByFreq returns the k attributes among candidates with the highest
// freq values, ties broken by lower attribute index.
func topByFreq(candidates []int, freq []int, k int) []int {
	sorted := append([]int(nil), candidates...)
	sort.SliceStable(sorted, func(a, b int) bool { return freq[sorted[a]] > freq[sorted[b]] })
	return sorted[:k]
}

// ConsumeAttrCumul is the cumulative variant: it starts from the attribute
// with the highest individual frequency and repeatedly adds the attribute
// co-occurring most frequently with everything selected so far (the weight
// of log queries containing all selected attributes plus the candidate).
// When no remaining attribute co-occurs with the current selection, the
// remaining slots fall back to individual frequency order.
//
// With an index attached, scoring a candidate j is one superset count of
// picked ∪ {j}: per segment, the AND of those attributes' columns, sparsest
// first with early exit (index.Containing), never touching the log itself.
// Without one, each step is one scan of the log: every query containing the
// selection adds its weight to each remaining attribute it also contains.
type ConsumeAttrCumul struct{}

// Name implements Solver.
func (ConsumeAttrCumul) Name() string { return "ConsumeAttrCumul-SOC-CB-QL" }

// Solve implements Solver.
func (s ConsumeAttrCumul) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. Cancellation is polled once per selection
// step; a step costs at most |t| superset counts, or one scan of the log
// without an index.
func (s ConsumeAttrCumul) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	sol, err := s.solve(ctx, in, obs.tr)
	return obs.end(ctx, sol, err)
}

func (ConsumeAttrCumul) solve(ctx context.Context, in Instance, tr *obsv.Trace) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: consume-attr-cumul: %w", err)
	}
	n, err := normalize(ctx, in)
	if err != nil {
		return Solution{}, err
	}
	if n.exact {
		return n.full(), nil
	}
	// Co-occurrence is scored against the whole log, like the individual
	// frequencies (§IV.D), so scores and the freq tie-break share units.
	freq := n.fullFreq()
	picked := bitvec.New(in.Tuple.Width())
	remaining := append([]int(nil), n.ones...)
	scores := make([]int, len(remaining))

	sp := tr.StartSpan("select")
	for step := 0; step < n.m; step++ {
		if err := pollCtx(ctx); err != nil {
			sp.End()
			return Solution{}, fmt.Errorf("core: consume-attr-cumul: %w", err)
		}
		// scores[i] is the weight of the queries containing picked ∪
		// {remaining[i]}: the attribute's frequency while nothing is picked.
		scores = scores[:len(remaining)]
		if n.segs != nil {
			for i, j := range remaining {
				picked.Set(j)
				scores[i] = n.containing(picked)
				picked.Clear(j)
			}
		} else {
			cooccurScan(in.Log, picked, remaining, scores)
		}
		bestIdx, bestScore, bestFreq := -1, -1, -1
		for i, j := range remaining {
			if s := scores[i]; s > bestScore || (s == bestScore && freq[j] > bestFreq) {
				bestIdx, bestScore, bestFreq = i, s, freq[j]
			}
		}
		picked.Set(remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	sp.End()
	tr.Count("greedy.rescans", int64(n.m)) // each step rescans every remaining candidate attribute

	return Solution{Kept: picked, Satisfied: n.score(picked)}, nil
}

// cooccurScan is ConsumeAttrCumul's scoring without an index, the reference
// the indexed path is tested against: one pass over the log, in which every
// query containing picked adds its weight to scores[i] for each remaining[i]
// it also contains.
func cooccurScan(log *dataset.QueryLog, picked bitvec.Vector, remaining, scores []int) {
	for i := range scores {
		scores[i] = 0
	}
	for qi, q := range log.Queries {
		if !picked.SubsetOf(q) {
			continue
		}
		w := log.Weight(qi)
		for i, j := range remaining {
			if q.Get(j) {
				scores[i] += w
			}
		}
	}
}

// ConsumeQueries greedily swallows whole queries: it repeatedly picks the
// satisfiable query introducing the fewest new attributes and retains those
// attributes, until m attributes are selected (the last query may be taken
// partially). §IV.D; the paper's evaluation shows it is generally a bad
// choice, which Figs 7–10 of our harness reproduce.
type ConsumeQueries struct{}

// Name implements Solver.
func (ConsumeQueries) Name() string { return "ConsumeQueries-SOC-CB-QL" }

// Solve implements Solver.
func (s ConsumeQueries) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. Cancellation is polled once per consumed
// query; each iteration costs one pass over the restricted log.
func (s ConsumeQueries) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	sol, err := s.solve(ctx, in, obs.tr)
	return obs.end(ctx, sol, err)
}

func (ConsumeQueries) solve(ctx context.Context, in Instance, tr *obsv.Trace) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: consume-queries: %w", err)
	}
	n, err := normalize(ctx, in)
	if err != nil {
		return Solution{}, err
	}
	if n.exact {
		return n.full(), nil
	}

	selected := bitvec.New(in.Tuple.Width())
	count := 0
	used := make([]bool, n.log.Size())

	sp := tr.StartSpan("select")
	rescans := 0
	for count < n.m {
		if err := pollCtx(ctx); err != nil {
			sp.End()
			return Solution{}, fmt.Errorf("core: consume-queries: %w", err)
		}
		rescans++
		// Pass over the whole workload to find the query adding fewest new
		// attributes — this full rescan per iteration is what makes
		// ConsumeQueries the slowest greedy in Fig 10.
		bestQ, bestNew := -1, -1
		for qi, q := range n.log.Queries {
			if used[qi] {
				continue
			}
			nw := q.AndNot(selected).Count()
			if bestQ < 0 || nw < bestNew {
				bestQ, bestNew = qi, nw
			}
		}
		if bestQ < 0 {
			break // every satisfiable query already consumed
		}
		used[bestQ] = true
		for _, j := range n.log.Queries[bestQ].AndNot(selected).Ones() {
			if count >= n.m {
				break
			}
			selected.Set(j)
			count++
		}
	}
	sp.End()
	tr.Count("greedy.rescans", int64(rescans))

	// Left-over budget (fewer satisfiable queries than budget): fill with the
	// most frequent unselected tuple attributes, never hurting the solution.
	if count < n.m {
		freq := in.Log.AttrFrequencies()
		var rest []int
		for _, j := range n.ones {
			if !selected.Get(j) {
				rest = append(rest, j)
			}
		}
		for _, j := range topByFreq(rest, freq, min(n.m-count, len(rest))) {
			selected.Set(j)
		}
	}

	return Solution{Kept: selected, Satisfied: n.score(selected)}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
