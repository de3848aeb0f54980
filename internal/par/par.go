// Package par is the repository's parallel loop: Run executes indexed work
// items on a bounded set of workers with context cancellation, per-item
// panic capture and deterministic result placement.
//
// The workers share one cursor: each takes the next unclaimed index from a
// single atomic counter until the counter passes n. A worker held by one slow
// item therefore holds no other item back — the items behind it go to
// whichever workers are free (the "one huge tuple among tiny ones" regime).
//
// Determinism contract: the scheduler never reorders observable results.
// Item i's effects go to slot i of caller-owned storage; which goroutine runs
// item i, and when, is invisible as long as the item function is a pure
// function of i plus read-only shared state. Everything concurrency-related
// that IS observable — first-error selection, skip accounting — is resolved
// by explicit rules (first failure observed wins and cancels the rest),
// matching what core.SolveBatchContext documented before this package
// existed. See DESIGN.md §11.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"standout/internal/fault"
	"standout/internal/obsv"
)

// Process metrics, shared by every job in the process.
var (
	mItems = obsv.Default.Counter("standout_par_items_total",
		"Work items executed by the parallel scheduler.")
	mBusy = obsv.Default.Gauge("standout_par_busy_workers",
		"Workers currently executing a work item.")
	mQueued = obsv.Default.Gauge("standout_par_queue_depth",
		"Work items claimed by no worker yet, summed over active jobs.")
)

// Func is one work item: process item i under ctx. A non-nil error fails the
// item; the first failure of a job cancels the job's context.
type Func func(ctx context.Context, i int) error

// ItemError attributes a failure to the item that caused it.
type ItemError struct {
	Index int
	Err   error
}

func (e *ItemError) Error() string { return fmt.Sprintf("par: item %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// PanicError is the default wrapping of a recovered item panic when
// Options.WrapPanic is nil. Callers with their own panic type (core uses
// *core.PanicError) install a WrapPanic hook instead.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("par: item panicked: %v", e.Value) }

// Options tunes one job.
type Options struct {
	// Workers is the total concurrency including the calling goroutine (Run
	// spawns Workers−1 goroutines); ≤ 0 means GOMAXPROCS.
	Workers int
	// WrapPanic converts a recovered panic value and stack into the item's
	// error; nil wraps into *PanicError.
	WrapPanic func(v any, stack []byte) error
}

// Result reports how a job ended.
type Result struct {
	// Errs holds each failed item's error at its index; nil entries are items
	// that succeeded or were skipped. The slice always has the job's length.
	Errs []error
	// First is the first failure observed (the one that cancelled the job),
	// nil when every item succeeded or the job was cancelled from outside.
	First *ItemError
	// Attempted counts items whose Func actually ran; len(Errs)−Attempted
	// items were skipped by cancellation.
	Attempted int
	// Spawned counts goroutines started for this job: Workers−1, so 0 when
	// the job is sequential.
	Spawned int
}

// job is one Run: the shared cursor and the per-item bookkeeping.
type job struct {
	ctx    context.Context
	cancel context.CancelFunc
	fn     Func
	wrap   func(v any, stack []byte) error

	next      atomic.Int64 // the next unclaimed index; ≥ len(errs) when none is left
	attempted atomic.Int64
	errs      []error
	first     atomic.Pointer[ItemError]
}

// Run executes fn for every i in [0, n) with up to opts.Workers-way
// concurrency and blocks until all items finish. The calling goroutine is
// worker zero: a sequential job (Workers ≤ 1, or n ≤ 1) spawns no goroutines
// at all, and a parallel one spawns Workers−1.
//
// Cancellation and failure follow one rule: the first item error observed
// cancels the job's context (derived from ctx), items claimed afterwards are
// skipped without running, and items already in flight see the cancellation
// through their context. Run never returns early — even a cancelled job
// drains before Result comes back, so fn is never running after Run returns.
func Run(ctx context.Context, n int, opts Options, fn Func) Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &job{ctx: jctx, cancel: cancel, fn: fn, wrap: opts.WrapPanic, errs: make([]error, n)}
	mQueued.Add(float64(n))
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			j.work()
		}()
	}
	j.work()
	wg.Wait()
	return Result{Errs: j.errs, First: j.first.Load(), Attempted: int(j.attempted.Load()), Spawned: workers - 1}
}

// work claims items off the shared cursor until none is left. Items claimed
// after cancellation are skipped, which is how a cancelled job still drains
// promptly.
func (j *job) work() {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= len(j.errs) {
			return
		}
		mQueued.Add(-1)
		if j.ctx.Err() != nil {
			continue
		}
		j.attempted.Add(1)
		mItems.Add(1)
		mBusy.Add(1)
		err := j.protected(i)
		mBusy.Add(-1)
		if err != nil {
			j.errs[i] = err
			if j.first.CompareAndSwap(nil, &ItemError{Index: i, Err: err}) {
				j.cancel() // first failure stops everything still unclaimed
			}
		}
	}
}

// protected runs item i with panic recovery and the par.worker fault site
// (DESIGN.md §10) in front of it.
func (j *job) protected(i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			if j.wrap != nil {
				err = j.wrap(v, stack)
			} else {
				err = &PanicError{Value: v, Stack: stack}
			}
		}
	}()
	if ferr := fault.Hit(j.ctx, "par.worker"); ferr != nil {
		return ferr
	}
	return j.fn(j.ctx, i)
}
