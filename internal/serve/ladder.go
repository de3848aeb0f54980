package serve

import (
	"context"
	"errors"
	"sort"
	"strings"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/fault"
)

// Algorithms maps request algo names to solver constructors, parameterized
// on the per-solve worker count (Config.SolverWorkers; solvers without a
// parallel mode ignore it — results never depend on it either way, see
// DESIGN.md §11). "greedy" is the ladder's bottom rung (ConsumeAttrCumul,
// the strongest §IV.D heuristic) and also requestable directly.
var algorithms = map[string]func(workers int) core.Solver{
	"brute":            func(w int) core.Solver { return core.BruteForce{Workers: w} },
	"ip":               func(int) core.Solver { return core.IP{} },
	"ilp":              func(w int) core.Solver { return core.ILP{Workers: w} },
	"mfi":              func(int) core.Solver { return core.MaxFreqItemSets{} },
	"mfi-exact":        func(w int) core.Solver { return core.MaxFreqItemSets{Backend: core.BackendExactDFS, Workers: w} },
	"consumeattr":      func(int) core.Solver { return core.ConsumeAttr{} },
	"consumeattrcumul": func(int) core.Solver { return core.ConsumeAttrCumul{} },
	"consumequeries":   func(int) core.Solver { return core.ConsumeQueries{} },
	"greedy":           func(int) core.Solver { return core.ConsumeAttrCumul{} },
	"estimate":         func(int) core.Solver { return core.Estimate{} },
}

// greedyNames are the rungless algorithms: already the cheapest tier.
var greedyNames = map[string]bool{
	"consumeattr": true, "consumeattrcumul": true, "consumequeries": true, "greedy": true,
	"estimate": true,
}

// AlgoNames lists the accepted algo values, sorted.
func AlgoNames() []string {
	out := make([]string, 0, len(algorithms))
	for n := range algorithms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rung is one step of the degradation ladder: a solver, its response name,
// and the minimum remaining deadline budget worth attempting it with.
// direct rungs solve without the shared prep — the estimate rung carries its
// own model and must not block on a prep rebuild it does not need.
type rung struct {
	name   string
	solver core.Solver
	floor  time.Duration
	direct bool
}

// ladder builds the fallback chain for a requested algorithm:
//
//	exact (brute|ip|ilp)  →  mfi-exact  →  greedy  [→  estimate]
//	mfi | mfi-exact       →  greedy  [→  estimate]
//	greedy tier           →  [estimate]
//	estimate              →  (no fallback; nothing is cheaper)
//
// Every rung above greedy is exact, so any non-estimated answer the ladder
// produces — degraded or not — satisfies at least as many queries as the
// greedy baseline on the same instance. The estimate rung (DESIGN.md §16)
// joins the chain only when a warmed model for the request's log generation
// exists; greedy then gets a floor of Config.GreedyBudget and the estimator
// — which touches neither the log nor the index — becomes the true bottom:
// under extreme deadline pressure a 200 with a certified interval beats a
// 504. While no model is warmed, greedy keeps floor zero and the ladder is
// exactly the pre-estimate chain.
func (s *Server) ladder(algo string, log *dataset.QueryLog) []rung {
	est, warmed := s.estimateRung(log)
	if algo == "estimate" {
		if warmed {
			return []rung{est}
		}
		// No warmed model: the solver builds one from the prep (or log) itself.
		return []rung{{name: algo, solver: algorithms[algo](s.cfg.SolverWorkers)}}
	}
	greedyFloor := time.Duration(0)
	var tail []rung
	if warmed {
		greedyFloor = s.cfg.GreedyBudget
		tail = []rung{est}
	}
	if greedyNames[algo] {
		return append([]rung{{name: algo, solver: algorithms[algo](s.cfg.SolverWorkers), floor: greedyFloor}}, tail...)
	}
	requested := rung{name: algo, solver: algorithms[algo](s.cfg.SolverWorkers), floor: s.cfg.ExactBudget}
	greedy := rung{name: "greedy", solver: core.ConsumeAttrCumul{}, floor: greedyFloor}
	if strings.HasPrefix(algo, "mfi") {
		requested.floor = s.cfg.MFIBudget
		return append([]rung{requested, greedy}, tail...)
	}
	mfi := rung{name: "mfi-exact", solver: core.MaxFreqItemSets{Backend: core.BackendExactDFS, Workers: s.cfg.SolverWorkers}, floor: s.cfg.MFIBudget}
	return append([]rung{requested, mfi, greedy}, tail...)
}

// estimateRung returns the shed-of-last-resort rung when the cached prep is
// usable for log and its estimator model has been warmed. The model is
// injected into the solver directly: the solve then touches neither the log
// nor the shared index, so the rung works even while the prep churns.
func (s *Server) estimateRung(log *dataset.QueryLog) (rung, bool) {
	if p := s.prep.snapshot(); usable(p, log) {
		if m := p.EstimatorModelReady(); m != nil {
			return rung{name: "estimate", solver: core.Estimate{Model: m}, direct: true}, true
		}
	}
	return rung{}, false
}

// solveLadder runs one instance down the degradation ladder under the
// request deadline. Rungs whose floor exceeds the remaining budget are
// skipped outright; an attempted rung gets the remaining budget minus a
// reserve for the rungs below it, so a rung that blows its slice still
// leaves time to serve something. The bottom rung gets whatever is left.
// It returns the solution, the name of the rung that produced it, and
// whether that was a degradation from the requested algorithm.
func (s *Server) solveLadder(ctx context.Context, algo string, log *dataset.QueryLog, tuple bitvec.Vector, m int) (core.Solution, string, bool, error) {
	rungs := s.ladder(algo, log)
	deadline, hasDeadline := ctx.Deadline()
	var lastErr error
	for i, r := range rungs {
		last := i == len(rungs)-1
		if err := ctx.Err(); err != nil {
			return core.Solution{}, r.name, i > 0, err
		}
		rctx, cancel := ctx, context.CancelFunc(func() {})
		if hasDeadline && !last {
			remaining := time.Until(deadline)
			if remaining < r.floor {
				continue // not worth starting: fall to a cheaper rung
			}
			slice := remaining - s.cfg.GreedyReserve
			if slice <= 0 {
				continue
			}
			rctx, cancel = context.WithTimeout(ctx, slice)
		}
		var sol core.Solution
		var err error
		if r.direct {
			// The rung carries everything it needs (an injected estimator
			// model): solve without touching the shared prep, so a rebuild in
			// flight cannot stall the last rung.
			sol, err = s.safeSolve(rctx, func(ctx context.Context) (core.Solution, error) {
				return r.solver.SolveContext(ctx, core.Instance{Log: log, Tuple: tuple, M: m})
			})
		} else {
			sol, err = s.attempt(rctx, r.solver, log, tuple, m)
		}
		cancel()
		if err == nil {
			return sol, r.name, i > 0, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The request's own budget is gone; stop descending.
			return core.Solution{}, r.name, i > 0, ctx.Err()
		}
		var pe *core.PanicError
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			continue // the rung's slice expired: degrade
		case errors.As(err, &pe):
			continue // the rung panicked (already recovered and counted): degrade
		case last:
		default:
			// Anything else (validation, injected non-deadline fault) will
			// not improve on a cheaper rung — but a degraded answer still
			// beats an error, so fall through to the bottom rung.
			continue
		}
	}
	return core.Solution{}, "", false, lastErr
}

// attempt solves one instance through the shared prep, retrying with
// single-flight rebuilds when the prep goes stale mid-flight (a Touch or
// swap racing the solve), and falling back to index-less solving when
// rebuilding keeps failing. Panics are recovered into *core.PanicError.
func (s *Server) attempt(ctx context.Context, solver core.Solver, log *dataset.QueryLog, tuple bitvec.Vector, m int) (core.Solution, error) {
	for try := 0; ; try++ {
		p, perr := s.prep.get(ctx, log)
		var sol core.Solution
		var err error
		if perr == nil {
			sol, err = s.safeSolve(ctx, func(ctx context.Context) (core.Solution, error) {
				return p.SolveContext(ctx, solver, tuple, m)
			})
		} else {
			if ctx.Err() != nil {
				return core.Solution{}, ctx.Err()
			}
			// No shared index available (persistent rebuild failure): serve
			// the slow-but-correct direct path rather than failing.
			sol, err = s.safeSolve(ctx, func(ctx context.Context) (core.Solution, error) {
				return solver.SolveContext(ctx, core.Instance{Log: log, Tuple: tuple, M: m})
			})
		}
		if err != nil && errors.Is(err, core.ErrStalePrep) && try < s.cfg.RebuildRetries && ctx.Err() == nil {
			s.met.staleRetries.Add(1)
			if p != nil {
				s.prep.invalidate(p)
			}
			if serr := s.prep.backoff.Sleep(ctx, try+1); serr != nil {
				return core.Solution{}, serr
			}
			continue
		}
		return sol, err
	}
}

// safeSolve is the panic boundary of one solve attempt: a panicking solver
// (or an injected chaos panic at the serve.solve site) becomes a
// *core.PanicError and a metrics tick instead of a dead process.
func (s *Server) safeSolve(ctx context.Context, f func(context.Context) (core.Solution, error)) (sol core.Solution, err error) {
	defer func() {
		var pe *core.PanicError
		if errors.As(err, &pe) {
			s.met.panics.Add(1)
		}
	}()
	defer core.RecoverPanic(&err)
	if ferr := fault.Hit(ctx, "serve.solve"); ferr != nil {
		return core.Solution{}, ferr
	}
	return f(ctx)
}
