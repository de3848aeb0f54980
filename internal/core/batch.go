package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/obsv"
	"standout/internal/par"
)

// BatchError records which tuple of a batch failed and why. It is the error
// type SolveBatchContext aggregates per tuple and returns as the batch-level
// error; errors.Is/As unwrap to the solver's underlying error.
type BatchError struct {
	Index int // index into the tuples slice
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch tuple %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// SolveBatch solves the same (log, m) problem for many tuples concurrently —
// the marketplace regime the paper's preprocessing discussion targets, where
// one workload is shared by a stream of new listings. Results align with
// tuples by index. workers ≤ 0 selects GOMAXPROCS. The first error cancels
// the batch: dispatch stops, in-flight solves are interrupted through their
// context, and the error is returned.
//
// Per-log work is built once and shared: the batch prepares the query log
// (inverted attribute→query bitmap index plus a solution memo for repeated
// tuples) and every worker solves through it. Results are identical to the
// unshared path — only faster. See SolveBatchContext for the knobs.
//
// Every Solver in this package is safe for concurrent use by value.
func SolveBatch(s Solver, log *dataset.QueryLog, tuples []bitvec.Vector, m, workers int) ([]Solution, error) {
	out, _, err := SolveBatchContext(context.Background(), s, log, tuples, m, workers)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SolveBatchContext is SolveBatch under a context, with partial-result
// reporting. Solutions and per-tuple errors align with tuples by index:
// errs[i] carries tuple i's failure (including a cancellation that landed
// mid-solve), and a tuple that was never attempted has a zero Solution and a
// nil error.
//
// Every tuple solves behind a panic boundary: a panicking solver is
// recovered into a *PanicError attributed to its tuple (wrapped by the
// returned *BatchError like any other failure) instead of crashing the
// process, so one malformed tuple cannot take down its siblings.
//
// Cancellation is prompt in both directions. When ctx is done, the producer
// stops handing out work, every in-flight solve is interrupted through the
// context it was given, and the external ctx error is returned. When a solve
// fails, the failure cancels an internal context with the same effect and the
// batch error — a *BatchError identifying the first failing tuple observed —
// is returned. Either way at most the already-dispatched tuples (bounded by
// the number of workers) run to completion; everything else is skipped.
//
// Shared per-log state: unless the context disables it (WithoutPreparation)
// or already carries a matching PreparedLog (WithPrepared — e.g. to reuse
// one across batches), a multi-tuple batch prepares the log once — building
// the shared bitmap index under an "index.build" span on the batch trace —
// and every worker solves through it, memoizing solutions for repeated
// tuples. A context-attached PreparedLog for a different log is ignored.
//
// Scheduling runs on internal/par's shared cursor: each worker takes the
// next unclaimed tuple as soon as it is free, so one pathologically slow
// tuple cannot strand the cheap tuples queued behind it. Results are written
// by tuple index, so the schedule is invisible in the output (DESIGN.md
// §11). The batch is normalized before any worker sizing: an empty batch
// returns before the scheduler is even constructed, and a single-tuple or
// single-worker batch runs entirely on the calling goroutine — zero
// goroutines spawned either way.
func SolveBatchContext(ctx context.Context, s Solver, log *dataset.QueryLog, tuples []bitvec.Vector, m, workers int) ([]Solution, []error, error) {
	// Normalize the batch shape first; worker sizing comes after, so a batch
	// with nothing to do never consults the scheduler at all.
	out := make([]Solution, len(tuples))
	errs := make([]error, len(tuples))
	if len(tuples) == 0 {
		return out, errs, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tuples) {
		workers = len(tuples)
	}

	pl := preparedFromContext(ctx)
	if pl != nil && !pl.usableFor(log) {
		pl = nil // prepared for some other (or mutated) log: ignore
	}
	if pl == nil && !preparationDisabled(ctx) && len(tuples) > 1 {
		// Build failures are not fatal here: an invalid log will produce the
		// same validation error from the solver itself, attributed per tuple.
		if built, err := PrepareLogContext(ctx, log); err == nil {
			pl = built
		}
	}

	// Batch-level observability: a shared "batch" span, per-tuple queue-wait
	// samples (time from batch start to a worker claiming the index), and
	// per-tuple outcome counters. The trace is shared by every worker — Trace
	// is concurrency-safe — so each tuple's solver phases aggregate into one
	// batch-wide breakdown.
	tr := obsv.FromContext(ctx)
	batchSpan := tr.StartSpan("batch")
	t0 := time.Now()
	tr.Count("batch.tuples", int64(len(tuples)))

	res := par.Run(ctx, len(tuples), par.Options{
		Workers: workers,
		// A solver panic (a malformed tuple tripping a bitvec width check, an
		// injected chaos panic) becomes a *PanicError attributed to its tuple
		// through the normal *BatchError path instead of taking down the
		// whole batch — and the process with it.
		WrapPanic: wrapBatchPanic,
	}, func(bctx context.Context, i int) error {
		wait := time.Since(t0)
		mBatchQueueWait.Observe(wait.Seconds())
		tr.Count("batch.queue_wait_ns", wait.Nanoseconds())
		if ferr := fault.Hit(bctx, "core.batch.tuple"); ferr != nil {
			return ferr
		}
		var sol Solution
		var err error
		if pl != nil {
			sol, err = pl.SolveContext(bctx, s, tuples[i], m)
		} else {
			sol, err = s.SolveContext(bctx, Instance{Log: log, Tuple: tuples[i], M: m})
		}
		if err != nil {
			return err
		}
		out[i] = sol
		return nil
	})
	copy(errs, res.Errs)

	var firstErr error
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if res.First != nil {
		firstErr = &BatchError{Index: res.First.Index, Err: res.First.Err}
	}
	solved := res.Attempted - failed
	skipped := len(tuples) - res.Attempted

	batchSpan.End()
	tr.Count("batch.solved", int64(solved))
	tr.Count("batch.failed", int64(failed))
	tr.Count("batch.skipped", int64(skipped))
	if lg := obsv.Logger(ctx); lg != nil {
		attrs := []slog.Attr{
			slog.String("solver", s.Name()),
			slog.Int("tuples", len(tuples)),
			slog.Int("solved", solved),
			slog.Int("failed", failed),
			slog.Int("skipped", skipped),
			slog.Duration("elapsed", time.Since(t0)),
		}
		if id := obsv.TraceIDStringFromContext(ctx); id != "" {
			attrs = append(attrs, slog.String("trace_id", id))
		}
		lg.LogAttrs(ctx, slog.LevelInfo, "batch.finish", attrs...)
	}

	// The external context outranks any per-tuple failure it caused.
	if err := ctx.Err(); err != nil {
		return out, errs, err
	}
	return out, errs, firstErr
}

// wrapBatchPanic is the par.Options.WrapPanic hook of batch solving: it
// converts a recovered worker panic into the package's *PanicError, keeping
// the panic-counter metric accurate.
func wrapBatchPanic(v any, stack []byte) error {
	mSolvePanics.Add(1)
	return &PanicError{Value: v, Stack: stack}
}

// PreparedSolver adapts MaxFreqItemSets preprocessing state to the Solver
// interface so it can be used with SolveBatch and the experiment harness.
// Instances must reference the exact query log the Prep was built from.
type PreparedSolver struct {
	Prep *Prep
}

// Name implements Solver.
func (p PreparedSolver) Name() string { return "MaxFreqItemSets-SOC-CB-QL (prepared)" }

// Solve implements Solver.
func (p PreparedSolver) Solve(in Instance) (Solution, error) {
	return p.SolveContext(context.Background(), in)
}

// SolveContext implements Solver, delegating to Prep.SolvePreparedContext.
func (p PreparedSolver) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	if p.Prep == nil {
		return Solution{}, fmt.Errorf("core: PreparedSolver with nil Prep")
	}
	if in.Log != p.Prep.log {
		return Solution{}, fmt.Errorf("core: PreparedSolver used with a different query log")
	}
	return p.Prep.SolvePreparedContext(ctx, in.Tuple, in.M)
}
