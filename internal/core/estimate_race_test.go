package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/estimate"
)

// TestEstimateSharedPrepConcurrent hammers one shared estimator model from 8
// solver goroutines while a writer publishes new log generations — weighted
// appends via copy-on-write Extend plus periodic Touch calls that void
// in-flight preps. Exists for `go test -race`: the estimate rung's whole
// premise is one immutable model shared lock-free across solves, and the
// ErrStalePrep retry path must hand readers a fresh generation (with a fresh
// model) exactly like the serving ladder does. Every successful solve's
// certified interval is recounted against the immutable log generation it
// actually solved — the soundness invariant under churn.
func TestEstimateSharedPrepConcurrent(t *testing.T) {
	log, tuples := raceWorkload(t, 150, 24)

	type generation struct {
		prep *PreparedLog
	}
	var cur atomic.Pointer[generation]
	p0, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the first model up front so readers start on the shared path.
	if _, err := p0.EstimatorModel(context.Background()); err != nil {
		t.Fatal(err)
	}
	cur.Store(&generation{prep: p0})

	const (
		readers   = 8
		solvesPer = 40
		appends   = 30
	)
	var staleRetries atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(17))
		width := log.Width()
		for round := 0; round < appends; round++ {
			g := cur.Load()
			old := g.prep.Log()
			if round%4 == 3 {
				old.Touch() // voids in-flight solves: readers hit ErrStalePrep
			}
			next := old.Extend()
			for k := 0; k < 1+r.Intn(3); k++ {
				q := bitvec.New(width)
				for q.Count() < 2 {
					q.Set(r.Intn(width))
				}
				if err := next.AppendWeighted(q, 1+r.Intn(4)); err != nil {
					t.Errorf("writer round %d: %v", round, err)
					return
				}
			}
			p, err := PrepareLogFromContext(context.Background(), g.prep, next)
			if err != nil {
				t.Errorf("writer round %d: rebuild: %v", round, err)
				return
			}
			cur.Store(&generation{prep: p})
		}
	}()

	for gid := 0; gid < readers; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for i := 0; i < solvesPer; i++ {
				tuple := tuples[(gid*solvesPer+i)%len(tuples)]
				for attempt := 0; ; attempt++ {
					g := cur.Load()
					ctx := WithPrepared(context.Background(), g.prep)
					sol, err := g.prep.SolveContext(ctx, Estimate{}, tuple, 4)
					if err != nil {
						if errors.Is(err, ErrStalePrep) && attempt < 100 {
							staleRetries.Add(1)
							// Reload the latest generation, like serve does, once
							// the writer has published one past the touched g.
							for deadline := time.Now().Add(10 * time.Second); cur.Load() == g && time.Now().Before(deadline); {
								runtime.Gosched()
							}
							continue
						}
						t.Errorf("g%d solve %d: %v", gid, i, err)
						return
					}
					if !sol.Estimated {
						t.Errorf("g%d solve %d: not marked Estimated", gid, i)
						return
					}
					// The generation's log is immutable (writers only Extend),
					// so the recount is race-free and must land in the interval.
					if exact := g.prep.Log().Satisfied(sol.Kept); exact < sol.EstLo || exact > sol.EstHi {
						t.Errorf("g%d solve %d: interval [%d,%d] misses exact %d",
							gid, i, sol.EstLo, sol.EstHi, exact)
						return
					}
					break
				}
			}
		}(gid)
	}
	wg.Wait()

	// Deterministic coverage of the retry path (the concurrent hammer above
	// only hits it when a Touch lands inside a solve window): void the final
	// generation mid-use, observe ErrStalePrep, rebuild, and solve clean —
	// exactly the serve ladder's recovery sequence.
	g := cur.Load()
	g.prep.Log().Touch()
	tuple := tuples[0]
	if _, err := g.prep.SolveContext(context.Background(), Estimate{}, tuple, 4); !errors.Is(err, ErrStalePrep) {
		t.Fatalf("touched prep: err = %v, want ErrStalePrep", err)
	}
	staleRetries.Add(1)
	fresh, err := PrepareLog(g.prep.Log())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := fresh.SolveContext(context.Background(), Estimate{}, tuple, 4)
	if err != nil {
		t.Fatalf("retry on rebuilt prep: %v", err)
	}
	if exact := fresh.Log().Satisfied(sol.Kept); exact < sol.EstLo || exact > sol.EstHi {
		t.Fatalf("retry interval [%d,%d] misses exact %d", sol.EstLo, sol.EstHi, exact)
	}
	t.Logf("%d solves, %d stale retries", readers*solvesPer, staleRetries.Load())
}

// TestEstimatorModelSingleFlight: concurrent first callers of EstimatorModel
// must fold into one build and share the identical model pointer.
func TestEstimatorModelSingleFlight(t *testing.T) {
	log, _ := raceWorkload(t, 120, 1)
	p, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	models := make([]*estimate.Model, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := p.EstimatorModel(context.Background())
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatalf("caller %d got a different model pointer", i)
		}
	}
}
