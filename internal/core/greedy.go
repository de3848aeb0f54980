package core

import (
	"context"
	"fmt"
	"sort"

	"standout/internal/bitvec"
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
// counting passes, so a single up-front cancellation check is the only one
// needed.
func (s ConsumeAttr) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	return solveCounting(ctx, s, in)
}

// count issues one Containing call of the tuple's singletons (the
// frequencies), then one Satisfied call of the kept set.
func (ConsumeAttr) count(ctx context.Context, c Counter, tuple bitvec.Vector, ones []int, m int, tr *obsv.Trace) (Solution, error) {
	if m >= len(ones) {
		return whole(ctx, c, tuple)
	}
	// Per §IV.D the frequencies come from the full query log, not just the
	// queries the tuple can satisfy.
	sp := tr.StartSpan("select")
	freq, err := c.Containing(ctx, singletons(tuple.Width(), ones))
	if err != nil {
		sp.End()
		return Solution{}, err
	}
	positions := make([]int, len(ones)) // freq is indexed by position in ones
	for i := range positions {
		positions[i] = i
	}
	kept := bitvec.New(tuple.Width())
	for _, i := range topByFreq(positions, freq, m) {
		kept.Set(ones[i])
	}
	sp.End()
	tr.Count("greedy.rescans", 1) // one frequency pass over the whole log
	return satisfied(ctx, c, kept)
}

// singletons returns {a} for every attribute a of ones, backed by one array.
func singletons(width int, ones []int) []bitvec.Vector {
	out := vectors(width, len(ones))
	for i, a := range ones {
		out[i].Set(a)
	}
	return out
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
// Ties go to the more frequent attribute, then to the lower index. When no
// remaining attribute co-occurs with the current selection, the remaining
// slots therefore fall back to individual frequency order.
type ConsumeAttrCumul struct{}

// Name implements Solver.
func (ConsumeAttrCumul) Name() string { return "ConsumeAttrCumul-SOC-CB-QL" }

// Solve implements Solver.
func (s ConsumeAttrCumul) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. Cancellation is polled once per selection
// step; a step costs one Containing call of at most |t| candidates, and the
// scan path answers it in one pass over the log. An index answers it per
// segment: the first two co-occurrence rounds (pairs, triples) from its
// support tables, one load per candidate, and every later round with one
// AND of the picked columns, shared by the round, plus one fused
// AND-and-weigh pass over each candidate's own column
// (index.ContainingBatch).
func (s ConsumeAttrCumul) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	return solveCounting(ctx, s, in)
}

// count issues one Containing call of the tuple's singletons (the
// frequencies, which also score the first pick), then one Containing call
// per further pick scoring picked ∪ {j} for every remaining j, then one
// Satisfied call of the kept set.
func (ConsumeAttrCumul) count(ctx context.Context, c Counter, tuple bitvec.Vector, ones []int, m int, tr *obsv.Trace) (Solution, error) {
	if m >= len(ones) {
		return whole(ctx, c, tuple)
	}
	// Co-occurrence is scored against the whole log, like the individual
	// frequencies (§IV.D), so scores and the freq tie-break share units.
	sp := tr.StartSpan("select")
	cands := singletons(tuple.Width(), ones)
	freq, err := c.Containing(ctx, cands)
	if err != nil {
		sp.End()
		return Solution{}, err
	}
	picked := bitvec.New(tuple.Width())
	remaining := make([]int, len(ones)) // positions into ones
	for i := range remaining {
		remaining[i] = i
	}
	scores := freq
	for step := 0; step < m; step++ {
		if err := pollCtx(ctx); err != nil {
			sp.End()
			return Solution{}, err
		}
		if step > 0 {
			// scores[k] is the weight of the queries containing picked ∪
			// {ones[remaining[k]]}; the candidate vectors are refilled in place.
			for k, i := range remaining {
				copy(cands[k].Words(), picked.Words())
				cands[k].Set(ones[i])
			}
			if scores, err = c.Containing(ctx, cands[:len(remaining)]); err != nil {
				sp.End()
				return Solution{}, err
			}
		}
		best := 0
		for k := 1; k < len(remaining); k++ {
			s, bs := scores[k], scores[best]
			if s > bs || (s == bs && freq[remaining[k]] > freq[remaining[best]]) {
				best = k
			}
		}
		picked.Set(ones[remaining[best]])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	sp.End()
	tr.Count("greedy.rescans", int64(m)) // each step rescans every remaining candidate attribute
	return satisfied(ctx, c, picked)
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
	defer n.release()
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
