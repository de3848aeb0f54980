package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/fault"
	"standout/internal/gen"
)

// panickySolver panics whenever the instance tuple equals trigger, and
// otherwise delegates to ConsumeAttr. It models a solver bug (e.g. a bitvec
// width mismatch reached past validation) that takes out one tuple.
type panickySolver struct {
	trigger bitvec.Vector
}

func (p panickySolver) Name() string { return "panicky" }
func (p panickySolver) Solve(in Instance) (Solution, error) {
	return p.SolveContext(context.Background(), in)
}
func (p panickySolver) SolveContext(ctx context.Context, in Instance) (Solution, error) {
	if in.Tuple.Equal(p.trigger) {
		panic("panicky: poisoned tuple")
	}
	return ConsumeAttr{}.SolveContext(ctx, in)
}

func TestBatchRecoversPerTuplePanic(t *testing.T) {
	tab := gen.Cars(1, 200)
	log := gen.RealWorkload(tab, 2, 60)
	tuples := gen.PickTuples(tab, 3, 16)
	poison := tuples[7]

	out, errs, err := SolveBatchContext(context.Background(),
		panickySolver{trigger: poison}, log, tuples, 4, 4)

	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("batch error %v (%T), want *BatchError", err, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("batch error %v does not unwrap to *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError captured no stack")
	}
	// The poisoned tuple is attributed exactly; siblings either completed
	// with correct results, were skipped by the first-error cancellation, or
	// were in flight when it landed and record it (as SolveBatchContext
	// documents) — never poisoned, and the process never died.
	foundPoison := false
	for i := range tuples {
		if tuples[i].Equal(poison) {
			if errs[i] == nil || !errors.As(errs[i], &pe) {
				t.Fatalf("tuple %d (poisoned): err=%v, want *PanicError", i, errs[i])
			}
			foundPoison = true
			continue
		}
		if errs[i] != nil {
			var sibling *PanicError
			if errors.As(errs[i], &sibling) || !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("tuple %d: unexpected error %v", i, errs[i])
			}
			continue
		}
		if out[i].Kept.Width() == 0 {
			continue // skipped after cancellation: zero Solution is fine
		}
		want, werr := (ConsumeAttr{}).Solve(Instance{Log: log, Tuple: tuples[i], M: 4})
		if werr != nil {
			t.Fatal(werr)
		}
		if out[i].Satisfied != want.Satisfied {
			t.Fatalf("tuple %d: satisfied %d, want %d", i, out[i].Satisfied, want.Satisfied)
		}
	}
	if !foundPoison {
		t.Fatal("poisoned tuple not found in batch")
	}
}

func TestBatchInjectedPanicIsRecovered(t *testing.T) {
	tab := gen.Cars(1, 100)
	log := gen.RealWorkload(tab, 2, 30)
	tuples := gen.PickTuples(tab, 3, 8)

	inj := fault.New(1, fault.Rule{Site: "core.batch.tuple", Every: 5, Count: 1, Kind: fault.KindPanic, Msg: "chaos"})
	ctx := fault.WithInjector(context.Background(), inj)
	_, errs, err := SolveBatchContext(ctx, ConsumeAttr{}, log, tuples, 3, 2)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("batch error %v, want *PanicError via *BatchError", err)
	}
	if inj.Fires("core.batch.tuple") != 1 {
		t.Fatalf("fires = %d, want 1", inj.Fires("core.batch.tuple"))
	}
	n := 0
	for _, e := range errs {
		if e != nil && errors.As(e, &pe) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d tuples attributed a panic, want 1", n)
	}
}

func TestErrStalePrepSentinel(t *testing.T) {
	tab := gen.Cars(1, 100)
	log := gen.RealWorkload(tab, 2, 30)
	tuple := tab.Rows[0]
	p, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	log.Touch()
	_, err = p.Solve(ConsumeAttr{}, tuple, 3)
	if !errors.Is(err, ErrStalePrep) {
		t.Fatalf("stale solve error %v does not wrap ErrStalePrep", err)
	}

	// Injected staleness surfaces through the same sentinel.
	p2, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1, fault.Rule{Site: "core.prep.stale", Kind: fault.KindError})
	ctx := fault.WithInjector(context.Background(), inj)
	if _, err := p2.SolveContext(ctx, ConsumeAttr{}, tuple, 3); !errors.Is(err, ErrStalePrep) {
		t.Fatalf("injected staleness error %v does not wrap ErrStalePrep", err)
	}
}

func TestInjectedPrepBuildFailure(t *testing.T) {
	tab := gen.Cars(1, 100)
	log := gen.RealWorkload(tab, 2, 30)
	inj := fault.New(1, fault.Rule{Site: "core.prep.build", Kind: fault.KindError})
	ctx := fault.WithInjector(context.Background(), inj)
	if _, err := PrepareLogContext(ctx, log); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("got %v, want injected build failure", err)
	}
}

// TestBatchConsistentUnderConcurrentTouch drives the satellite requirement:
// a QueryLog.Touch landing while a SolveBatchContext is in flight over a
// shared prep must leave every per-tuple outcome either fully pre-mutation
// consistent (a correct Solution for the log contents, which Touch does not
// change) or cleanly post-mutation (an error wrapping ErrStalePrep, a
// cancellation, or an untouched zero Solution) — never a mixed or corrupted
// result. Run under -race this also proves Touch/Version need no external
// locking against staleness checks.
func TestBatchConsistentUnderConcurrentTouch(t *testing.T) {
	tab := gen.Cars(1, 300)
	log := gen.RealWorkload(tab, 2, 60)
	tuples := gen.PickTuples(tab, 3, 48)
	const m = 4

	want := make([]int, len(tuples))
	for i, tuple := range tuples {
		sol, err := (ConsumeAttrCumul{}).Solve(Instance{Log: log, Tuple: tuple, M: m})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol.Satisfied
	}

	for round := 0; round < 20; round++ {
		prep, err := PrepareLog(log)
		if err != nil {
			t.Fatal(err)
		}
		ctx := WithPrepared(context.Background(), prep)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger the Touch across rounds so it lands at different points
			// of the batch: before dispatch, mid-flight, after completion.
			time.Sleep(time.Duration(round*50) * time.Microsecond)
			log.Touch()
		}()

		out, errs, batchErr := SolveBatchContext(ctx, ConsumeAttrCumul{}, log, tuples, m, 8)
		wg.Wait()

		for i := range tuples {
			switch {
			case errs[i] != nil:
				if !errors.Is(errs[i], ErrStalePrep) && !errors.Is(errs[i], context.Canceled) {
					t.Fatalf("round %d tuple %d: unexpected error %v", round, i, errs[i])
				}
			case out[i].Kept.Width() != 0:
				if out[i].Satisfied != want[i] {
					t.Fatalf("round %d tuple %d: satisfied %d, want %d (mixed result)",
						round, i, out[i].Satisfied, want[i])
				}
			}
		}
		if batchErr != nil {
			var be *BatchError
			if !errors.As(batchErr, &be) {
				t.Fatalf("round %d: batch error %v (%T), want *BatchError", round, batchErr, batchErr)
			}
			if !errors.Is(batchErr, ErrStalePrep) && !errors.Is(batchErr, context.Canceled) {
				t.Fatalf("round %d: batch error %v neither stale nor canceled", round, batchErr)
			}
		}
		// Restore a fresh prep's view for the next round (Touch only bumped
		// the version; contents are unchanged, so expectations hold).
	}
}
