package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"standout/internal/fault"
)

// markOnce returns a Func that records each processed index and fails the
// test on a duplicate run — the exactly-once property every other assertion
// builds on.
func markOnce(t *testing.T, ran []atomic.Int32) Func {
	t.Helper()
	return func(ctx context.Context, i int) error {
		if n := ran[i].Add(1); n != 1 {
			t.Errorf("item %d ran %d times", i, n)
		}
		return nil
	}
}

func TestRunCoversEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			ran := make([]atomic.Int32, n)
			res := Run(context.Background(), n, Options{Workers: workers}, markOnce(t, ran))
			for i := range ran {
				if ran[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, ran[i].Load())
				}
			}
			if res.Attempted != n {
				t.Fatalf("workers=%d n=%d: attempted %d", workers, n, res.Attempted)
			}
			if res.First != nil || len(res.Errs) != n {
				t.Fatalf("workers=%d n=%d: unexpected errors %+v", workers, n, res)
			}
		}
	}
}

func TestRunSequentialSpawnsNoGoroutines(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 8}, {1, 8}, {5, 1}, {1, 1}, {0, 0},
	} {
		res := Run(context.Background(), tc.n, Options{Workers: tc.workers},
			func(ctx context.Context, i int) error { return nil })
		if res.Spawned != 0 {
			t.Errorf("n=%d workers=%d: spawned %d goroutines, want 0", tc.n, tc.workers, res.Spawned)
		}
	}
	// And a genuinely parallel job reports its spawns.
	res := Run(context.Background(), 16, Options{Workers: 4},
		func(ctx context.Context, i int) error { return nil })
	if res.Spawned != 3 {
		t.Errorf("parallel job spawned %d, want 3", res.Spawned)
	}
}

func TestRunFirstErrorCancelsRest(t *testing.T) {
	const n = 500
	boom := errors.New("boom")
	var started atomic.Int32
	res := Run(context.Background(), n, Options{Workers: 4}, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 3 {
			return boom
		}
		// Late items should be skipped once the failure lands; stall a bit so
		// cancellation can actually beat the drain.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Microsecond):
			return nil
		}
	})
	if res.First == nil {
		t.Fatal("no First error recorded")
	}
	if !errors.Is(res.First, boom) {
		t.Fatalf("First = %v, want wrapped %v", res.First, boom)
	}
	if !errors.Is(res.Errs[res.First.Index], boom) {
		t.Fatalf("Errs[%d] = %v", res.First.Index, res.Errs[res.First.Index])
	}
	if res.Attempted >= n {
		t.Fatalf("cancellation skipped nothing (attempted %d of %d)", res.Attempted, n)
	}
	// Every item is accounted for exactly once: error, success, or skip.
	failed := 0
	for _, err := range res.Errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 || failed > res.Attempted {
		t.Fatalf("failed=%d attempted=%d", failed, res.Attempted)
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempted atomic.Int32
	go func() {
		for attempted.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res := Run(ctx, 10_000, Options{Workers: 4}, func(ctx context.Context, i int) error {
		attempted.Add(1)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if res.Attempted == 10_000 {
		t.Fatal("external cancel skipped nothing")
	}
	if res.First != nil {
		t.Fatalf("external cancel must not synthesize an item error, got %v", res.First)
	}
}

func TestRunPanicCapture(t *testing.T) {
	res := Run(context.Background(), 8, Options{Workers: 2}, func(ctx context.Context, i int) error {
		if i == 5 {
			panic("kaboom")
		}
		return nil
	})
	if res.First == nil || res.First.Index != 5 {
		t.Fatalf("First = %+v, want index 5", res.First)
	}
	var pe *PanicError
	if !errors.As(res.Errs[5], &pe) || pe.Value != "kaboom" {
		t.Fatalf("Errs[5] = %v", res.Errs[5])
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

func TestRunWrapPanicHook(t *testing.T) {
	wrapped := errors.New("wrapped panic")
	res := Run(context.Background(), 2, Options{
		Workers:   2,
		WrapPanic: func(v any, stack []byte) error { return fmt.Errorf("%w: %v", wrapped, v) },
	}, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("custom")
		}
		return nil
	})
	if !errors.Is(res.Errs[1], wrapped) {
		t.Fatalf("Errs[1] = %v, want custom wrapping", res.Errs[1])
	}
}

// TestRunSlowItemHoldsNoOtherBack is the skewed job: item 0 waits until
// every other item has run, so the job finishes only if the workers not held
// by item 0 take all 4,095 items behind it. The wait is bounded so a
// regression fails fast instead of hanging.
func TestRunSlowItemHoldsNoOtherBack(t *testing.T) {
	const n = 4096
	for _, workers := range []int{2, 4} {
		var ran atomic.Int32
		res := Run(context.Background(), n, Options{Workers: workers}, func(ctx context.Context, i int) error {
			if i != 0 {
				ran.Add(1)
				return nil
			}
			deadline := time.Now().Add(2 * time.Second)
			for ran.Load() < n-1 {
				if time.Now().After(deadline) {
					return fmt.Errorf("%d of %d items ran while item 0 waited 2s", ran.Load(), n-1)
				}
				time.Sleep(50 * time.Microsecond)
			}
			return nil
		})
		if res.First != nil {
			t.Fatalf("workers=%d: %v", workers, res.First)
		}
		if res.Attempted != n {
			t.Fatalf("workers=%d: attempted %d of %d", workers, res.Attempted, n)
		}
	}
}

func TestRunFaultSiteInjectsErrors(t *testing.T) {
	inj := fault.New(1, fault.Rule{Site: "par.worker", Every: 3, Kind: fault.KindError})
	ctx := fault.WithInjector(context.Background(), inj)
	res := Run(ctx, 9, Options{Workers: 1}, func(ctx context.Context, i int) error { return nil })
	if res.First == nil || !errors.Is(res.First, fault.ErrInjected) {
		t.Fatalf("First = %v, want injected error", res.First)
	}
}

func TestItemErrorUnwrap(t *testing.T) {
	base := errors.New("cause")
	e := &ItemError{Index: 3, Err: base}
	if !errors.Is(e, base) {
		t.Fatal("ItemError does not unwrap")
	}
	if e.Error() == "" || (&PanicError{Value: "v"}).Error() == "" {
		t.Fatal("empty error strings")
	}
}
