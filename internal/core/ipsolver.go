package core

import (
	"context"
	"fmt"
	"sort"

	"standout/internal/bitvec"
	"standout/internal/obsv"
)

// IP is the exact algorithm for the paper's first, nonlinear integer-program
// formulation (§IV.B):
//
//	maximize  Σᵢ Πⱼ∈qᵢ xⱼ   subject to  Σⱼ xⱼ ≤ m,  xⱼ ∈ {0,1}
//
// The product objective cannot be handed to an LP-relaxation solver, so IP
// performs branch-and-bound directly on the attribute decisions:
//
//   - nodes keep or drop one attribute at a time (hottest attributes first);
//   - the bound counts the queries whose attributes are all kept-or-undecided
//     and whose undecided attributes fit in the remaining budget — the
//     tightest bound available without linearizing;
//   - partial assignments are themselves feasible, supplying incumbents at
//     every node.
//
// IP and ILP always return equally good compressions; the ILP's linearized
// relaxation usually prunes better on large logs (the reason the paper
// emphasizes the ILP form: "the integer linear formulation is particularly
// attractive"), which ablation A7 quantifies.
type IP struct{}

// Name implements Solver.
func (IP) Name() string { return "IP-SOC-CB-QL" }

// Solve implements Solver.
func (s IP) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. The branch-and-bound recursion polls ctx
// every 256 nodes; each node costs two weighted log scans (evaluate + bound),
// so cancellation latency stays well under a millisecond per 10k queries.
func (s IP) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	sol, err := s.solve(ctx, in, obs.tr)
	return obs.end(ctx, sol, err)
}

func (IP) solve(ctx context.Context, in Instance, tr *obsv.Trace) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: ip: %w", err)
	}
	n, err := normalize(ctx, in)
	if err != nil {
		return Solution{}, err
	}
	defer n.release()
	if n.exact {
		return n.full(), nil
	}

	// Deduplicate queries; weights preserve the objective.
	log, weights := n.log.Dedup()

	// Branch order: attributes by descending weighted frequency.
	freq := make(map[int]int)
	for qi, q := range log.Queries {
		for _, j := range q.Ones() {
			freq[j] += weights[qi]
		}
	}
	order := append([]int(nil), n.ones...)
	sort.SliceStable(order, func(a, b int) bool { return freq[order[a]] > freq[order[b]] })

	kept := bitvec.New(in.Tuple.Width())
	dropped := bitvec.New(in.Tuple.Width())
	best := Solution{Optimal: true, Satisfied: -1}
	nodes, pruned := 0, 0

	evaluate := func() int {
		sat := 0
		for qi, q := range log.Queries {
			if q.SubsetOf(kept) {
				sat += weights[qi]
			}
		}
		return sat
	}
	bound := func(used int) int {
		remaining := n.m - used
		total := 0
		for qi, q := range log.Queries {
			if q.Intersects(dropped) {
				continue
			}
			if q.AndNot(kept).Count() <= remaining {
				total += weights[qi]
			}
		}
		return total
	}

	var ctxErr error
	var rec func(pos, used int)
	rec = func(pos, used int) {
		if ctxErr != nil {
			return
		}
		if nodes&255 == 0 {
			if ctxErr = pollCtx(ctx); ctxErr != nil {
				return
			}
		}
		nodes++
		if sat := evaluate(); sat > best.Satisfied {
			best.Kept = kept.Clone()
			best.Satisfied = sat
			tr.Event("ip.incumbent", int64(sat))
		}
		if pos == len(order) || used == n.m {
			return
		}
		if bound(used) <= best.Satisfied {
			pruned++
			return
		}
		j := order[pos]
		if used < n.m {
			kept.Set(j)
			rec(pos+1, used+1)
			kept.Clear(j)
		}
		dropped.Set(j)
		rec(pos+1, used)
		dropped.Clear(j)
	}
	sp := tr.StartSpan("branch_bound")
	rec(0, 0)
	sp.End()
	tr.Count("ip.nodes", int64(nodes))
	tr.Count("ip.pruned", int64(pruned))
	if ctxErr != nil {
		return Solution{}, fmt.Errorf("core: ip: %w", ctxErr)
	}

	if best.Satisfied < 0 { // empty attribute set
		best.Kept = kept.Clone()
		best.Satisfied = evaluate()
	}
	best.Stats = Stats{Nodes: nodes}
	return best, nil
}
