package core

import (
	"context"
	"fmt"

	"standout/internal/bitvec"
	"standout/internal/obsv"
)

// Counter is the counting oracle through which BruteForce (§IV.A),
// ConsumeAttr and ConsumeAttrCumul (§IV.D) read the query log. Each method
// returns one count per candidate, aligned with cands:
//
//   - Satisfied: the total weight of the queries q ⊆ v, the SOC-CB-QL
//     objective of compression v;
//   - Containing: the total weight of the queries q ⊇ v, an attribute's
//     frequency when v is a singleton and a co-occurrence score otherwise.
//
// Both counts are sums of query weights, so per-part answers over disjoint
// query sets add up to the answer over their union: a coordinator summing
// its shards' replies is a Counter of the whole log, and solving over it is
// bit-identical to solving the unpartitioned log (DESIGN.md §15).
//
// Callers may reuse cands and its vectors once a call returns. An
// implementation that keeps reading them after returning must copy them
// first. The returned counts belong to the caller.
type Counter interface {
	Satisfied(ctx context.Context, cands []bitvec.Vector) ([]int, error)
	Containing(ctx context.Context, cands []bitvec.Vector) ([]int, error)
}

// counting is implemented by the solvers whose only access to the log is a
// Counter. count is the solver's one body: SolveContext runs it over the
// instance's own prepared state, SolveCounter over any Counter.
type counting interface {
	Solver
	// count solves (tuple, m) over c; ones lists the tuple's attributes in
	// ascending order. Every body issues the same Counter calls in the same
	// order whatever c is, which is what makes a sharded solve's traffic a
	// function of the instance alone.
	count(ctx context.Context, c Counter, tuple bitvec.Vector, ones []int, m int, tr *obsv.Trace) (Solution, error)
}

// SolveCounter runs s over c for the tuple and budget m, with the same
// observability as SolveContext. s must be a BruteForce, ConsumeAttr or
// ConsumeAttrCumul. When c counts a log exactly, the result equals
// s.SolveContext on that log. BruteForce enumerates sequentially whatever
// its Workers, since c need not be safe for concurrent calls.
func SolveCounter(ctx context.Context, s Solver, c Counter, tuple bitvec.Vector, m int) (Solution, error) {
	cs, ok := s.(counting)
	if !ok {
		return Solution{}, fmt.Errorf("core: %s does not solve over a Counter", s.Name())
	}
	if m < 0 {
		return Solution{}, fmt.Errorf("core: negative budget m=%d", m)
	}
	obs := beginSolve(ctx, s.Name(), Instance{Tuple: tuple, M: m})
	sol, err := runCounting(ctx, cs, c, tuple, tuple.Ones(), m, obs.tr)
	return obs.end(ctx, sol, err)
}

// solveCounting is the SolveContext of a counting solver: its body over the
// normalized instance, which is the Counter of the instance's own log.
func solveCounting(ctx context.Context, s counting, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	if err := ctx.Err(); err != nil {
		return obs.end(ctx, Solution{}, fmt.Errorf("core: %s: %w", s.Name(), err))
	}
	n, err := reduce(ctx, in, false)
	if err != nil {
		return obs.end(ctx, Solution{}, err)
	}
	sol, err := runCounting(ctx, s, &n, in.Tuple, n.ones, in.M, obs.tr)
	n.release()
	return obs.end(ctx, sol, err)
}

func runCounting(ctx context.Context, s counting, c Counter, tuple bitvec.Vector, ones []int, m int, tr *obsv.Trace) (Solution, error) {
	sol, err := s.count(ctx, c, tuple, ones, m, tr)
	if err != nil {
		return Solution{}, fmt.Errorf("core: %s: %w", s.Name(), err)
	}
	return sol, nil
}

// whole answers m ≥ |t| for every counting solver: keeping the entire tuple
// is optimal, and one Satisfied call counts it.
func whole(ctx context.Context, c Counter, tuple bitvec.Vector) (Solution, error) {
	sol, err := satisfied(ctx, c, tuple.Clone())
	sol.Optimal = true
	return sol, err
}

// satisfied counts one compression with a single Satisfied call.
func satisfied(ctx context.Context, c Counter, kept bitvec.Vector) (Solution, error) {
	counts, err := c.Satisfied(ctx, []bitvec.Vector{kept})
	if err != nil {
		return Solution{}, err
	}
	return Solution{Kept: kept, Satisfied: counts[0]}, nil
}

// vectors returns n empty vectors of the given width backed by one array, so
// a body's candidate buffers cost two allocations however many it holds.
func vectors(width, n int) []bitvec.Vector {
	nw := (width + 63) / 64
	words := make([]uint64, nw*n)
	out := make([]bitvec.Vector, n)
	for i := range out {
		out[i] = bitvec.FromWords(width, words[i*nw:(i+1)*nw:(i+1)*nw])
	}
	return out
}

// Satisfied implements Counter for compressions of the instance tuple: per
// index segment, the tuple's candidate bitmap minus the columns of the tuple
// attributes a compression drops (index.SatisfiedDropping), or a scan of
// the restricted log without an index. Both methods poll ctx after every
// pollMask+1 candidates, so a call shorter than that runs to completion like
// the single-pass scoring it replaces.
func (n *normalized) Satisfied(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	counts := make([]int, len(cands))
	for ci, cand := range cands {
		if ci&pollMask == pollMask {
			if err := pollCtx(ctx); err != nil {
				return nil, err
			}
		}
		counts[ci] = n.score(cand)
	}
	return counts, nil
}

// Containing implements Counter over the whole, unrestricted log — §IV.D
// scores co-occurrence against every query: per index segment the AND of a
// candidate's columns (index.Containing), or one scan of the log without an
// index.
func (n *normalized) Containing(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	if n.segs == nil {
		return containingScan(ctx, n.in.Log, cands)
	}
	counts := make([]int, len(cands))
	for ci, cand := range cands {
		if ci&pollMask == pollMask {
			if err := pollCtx(ctx); err != nil {
				return nil, err
			}
		}
		for i, s := range n.segs {
			counts[ci] += s.idx.Containing(cand, n.scratch[i])
		}
	}
	return counts, nil
}
