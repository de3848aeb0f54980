package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"standout/internal/bitvec"
	"standout/internal/ilp"
	"standout/internal/lp"
	"standout/internal/obsv"
)

// ILP is the exact algorithm of §IV.B. It encodes the instance as the
// paper's linearized 0/1 program
//
//	maximize   Σᵢ yᵢ
//	subject to Σⱼ xⱼ ≤ m
//	           yᵢ ≤ xⱼ          for every attribute j of query qᵢ
//	           xⱼ = 0            where the tuple lacks attribute j
//	           xⱼ ∈ {0,1},  yᵢ ∈ [0,1]
//
// and solves it with the branch-and-bound solver of package ilp (the paper
// used the off-the-shelf lpsolve library; see DESIGN.md §3). The yᵢ stay
// continuous: with integral x, maximizing forces every yᵢ to its integral
// upper envelope, so only the x need branching.
//
// Two reductions shrink the program before solving: queries not contained in
// the tuple are dropped (their yᵢ is forced to 0 by the fixed xⱼ anyway),
// and duplicate queries are collapsed with multiplicities as objective
// weights.
type ILP struct {
	// Timeout bounds the branch-and-bound wall clock; 0 means none. It is
	// implemented as a context deadline layered over the caller's context. On
	// expiry Solve returns the incumbent with Solution.Optimal=false, or, when
	// no incumbent was found, an error satisfying
	// errors.Is(err, context.DeadlineExceeded).
	Timeout time.Duration
	// MaxNodes bounds branch-and-bound nodes; 0 means the ilp default.
	MaxNodes int
	// Presolve enables LP presolve at every branch-and-bound node. Folding
	// branch-fixed variables shrinks deep-node LPs, but the per-node program
	// rebuild costs more than it saves on small instances; off by default.
	Presolve bool
	// Workers parallelizes the branch-and-bound search with speculative LP
	// workers; ≤ 1 (the zero value) searches sequentially. Results are
	// bit-identical for any worker count (see ilp.Options.Workers and
	// DESIGN.md §11).
	Workers int
}

// Name implements Solver.
func (ILP) Name() string { return "ILP-SOC-CB-QL" }

// Solve implements Solver.
func (s ILP) Solve(in Instance) (Solution, error) {
	return s.SolveContext(context.Background(), in)
}

// SolveContext implements Solver. Cancellation is polled before every
// branch-and-bound node and inside the simplex hot loops of each LP solve.
//
// The two deadline sources are reported differently: when the caller's ctx is
// cancelled or expires, SolveContext always returns an error (the caller
// asked to stop; a silent partial answer would masquerade as a full one).
// When only the solver's own Timeout expires, the incumbent — if any — is
// returned with Optimal=false and a nil error, preserving Solve's documented
// anytime behavior.
func (s ILP) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	obs := beginSolve(ctx, s.Name(), in)
	sol, err := s.solve(ctx, in, obs.tr)
	return obs.end(ctx, sol, err)
}

func (s ILP) solve(ctx context.Context, in Instance, tr *obsv.Trace) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, fmt.Errorf("core: ILP solve: %w", err)
	}
	n, err := normalize(ctx, in)
	if err != nil {
		return Solution{}, err
	}
	defer n.release()
	if n.exact {
		return n.full(), nil
	}
	encodeSpan := tr.StartSpan("encode")
	log, weights := n.log.Dedup()

	prob := lp.NewProblem(lp.Maximize)
	// One x per tuple attribute (absent attributes are simply not modeled —
	// equivalent to fixing them to 0 as in the paper's formulation).
	xVar := make(map[int]int, len(n.ones)) // attribute index → LP variable
	intVars := make([]int, 0, len(n.ones))
	budget := make([]lp.Term, 0, len(n.ones))
	for _, j := range n.ones {
		v := prob.AddBinaryVar(0, fmt.Sprintf("x%d", j))
		xVar[j] = v
		intVars = append(intVars, v)
		budget = append(budget, lp.Term{Var: v, Coeff: 1})
	}
	prob.AddConstraint(budget, lp.LE, float64(n.m))

	for qi, q := range log.Queries {
		y := prob.AddVar(0, 1, float64(weights[qi]), fmt.Sprintf("y%d", qi))
		for _, j := range q.Ones() {
			prob.AddConstraint(
				[]lp.Term{{Var: y, Coeff: 1}, {Var: xVar[j], Coeff: -1}}, lp.LE, 0)
		}
	}
	encodeSpan.End()

	// Rounding heuristic: keep the m attributes with the largest fractional
	// xⱼ and score the resulting compression exactly. This gives the
	// branch-and-bound search strong incumbents early.
	heuristic := func(x []float64) ([]float64, float64, bool) {
		kept := s.roundTopM(n, xVar, x)
		sat := n.score(kept)
		sol := make([]float64, len(x))
		for _, j := range kept.Ones() {
			sol[xVar[j]] = 1
		}
		// y variables were created in query order right after the x block.
		yBase := len(n.ones)
		for qi, q := range log.Queries {
			if q.SubsetOf(kept) {
				sol[yBase+qi] = 1
			}
		}
		return sol, float64(sat), true
	}

	bnbSpan := tr.StartSpan("branch_bound")
	res, err := ilp.SolveContext(ctx, prob, intVars, ilp.Options{
		MaxNodes:    s.MaxNodes,
		Timeout:     s.Timeout,
		ObjIntegral: true,
		Heuristic:   heuristic,
		LP:          lp.Options{Presolve: s.Presolve},
		Workers:     s.Workers,
	})
	bnbSpan.End()
	tr.Count("ilp.nodes", int64(res.Nodes))
	if err != nil {
		if ctx.Err() != nil || !res.HasIncumbent {
			// The caller's context fired, or the solver's own Timeout expired
			// with nothing to show: propagate the typed error.
			return Solution{}, fmt.Errorf("core: ILP solve: %w", err)
		}
		// Only the solver's Timeout fired and an incumbent exists: fall
		// through and return it below with Optimal=false.
	}

	switch res.Status {
	case ilp.StatusOptimal:
	case ilp.StatusLimit:
		if !res.HasIncumbent {
			return Solution{}, fmt.Errorf("core: ILP hit its limit with no incumbent (nodes=%d)", res.Nodes)
		}
	case ilp.StatusInfeasible:
		// Cannot happen: keeping nothing is always feasible. Guard anyway.
		return Solution{}, fmt.Errorf("core: ILP reported infeasible")
	default:
		return Solution{}, fmt.Errorf("core: ILP status %v", res.Status)
	}

	var attrs []int
	for _, j := range n.ones {
		if res.X[xVar[j]] > 0.5 {
			attrs = append(attrs, j)
		}
	}
	kept := n.keep(attrs)
	return Solution{
		Kept:      kept,
		Satisfied: n.score(kept),
		Optimal:   res.Status == ilp.StatusOptimal,
		Stats:     Stats{Nodes: res.Nodes},
	}, nil
}

// roundTopM keeps the m attributes with the largest fractional values.
func (s ILP) roundTopM(n normalized, xVar map[int]int, x []float64) bitvec.Vector {
	type fx struct {
		attr int
		v    float64
	}
	vals := make([]fx, 0, len(n.ones))
	for _, j := range n.ones {
		vals = append(vals, fx{j, x[xVar[j]]})
	}
	// Selection by partial sort.
	for i := 0; i < n.m && i < len(vals); i++ {
		maxI := i
		for k := i + 1; k < len(vals); k++ {
			if vals[k].v > vals[maxI].v+1e-12 ||
				(math.Abs(vals[k].v-vals[maxI].v) <= 1e-12 && vals[k].attr < vals[maxI].attr) {
				maxI = k
			}
		}
		vals[i], vals[maxI] = vals[maxI], vals[i]
	}
	attrs := make([]int, 0, n.m)
	for i := 0; i < n.m && i < len(vals); i++ {
		attrs = append(attrs, vals[i].attr)
	}
	return n.keep(attrs)
}
