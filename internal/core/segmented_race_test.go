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
	"standout/internal/fault"
)

// TestSegmentedPrepConcurrentAppendAndCompaction hammers one shared
// segmented prep chain from 8 solver goroutines while a writer keeps
// publishing new generations: copy-on-write Extend + weighted appends,
// incremental PrepareLogFrom rebuilds, size-tiered compaction firing (and
// randomly failing, via the core.prep.compact fault site) mid-solve, and
// occasional Touch calls that void in-flight preps so readers exercise the
// ErrStalePrep retry loop. Exists for `go test -race`: old generations must
// keep scoring their immutable snapshots while segments are merged and
// shared structurally underneath.
func TestSegmentedPrepConcurrentAppendAndCompaction(t *testing.T) {
	log, tuples := raceWorkload(t, 200, 32)

	// Compaction fails every other rebuild: segment layouts diverge between
	// generations, so solves cross single- and multi-segment preps.
	buildCtx := fault.WithInjector(context.Background(),
		fault.New(7, fault.Rule{Site: "core.prep.compact", Every: 2, Kind: fault.KindError, Msg: "chaos compaction"}))

	type generation struct {
		prep *PreparedLog
	}
	var cur atomic.Pointer[generation]
	p0, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(&generation{prep: p0})

	const (
		readers   = 8
		solvesPer = 60
		appends   = 40
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: each round extends the current generation with a few weighted
	// queries and publishes an incrementally rebuilt prep. Every fifth round
	// first Touches the outgoing generation — in-flight SolveContext calls on
	// it observe ErrStalePrep, and the lineage certificate is voided so the
	// rebuild falls back to a full build (both paths must serve identically).
	var deltaBuilds, fullBuilds atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		r := rand.New(rand.NewSource(99))
		width := log.Width()
		for round := 0; round < appends; round++ {
			g := cur.Load()
			old := g.prep.Log()
			if round%5 == 4 {
				old.Touch()
			}
			next := old.Extend()
			for k := 0; k < 1+r.Intn(3); k++ {
				q := bitvec.New(width)
				for q.Count() < 2 {
					q.Set(r.Intn(width))
				}
				if err := next.AppendWeighted(q, 1+r.Intn(3)); err != nil {
					t.Errorf("writer round %d: %v", round, err)
					return
				}
			}
			p, err := PrepareLogFromContext(buildCtx, g.prep, next)
			if err != nil {
				t.Errorf("writer round %d: rebuild: %v", round, err)
				return
			}
			if p.Delta() {
				deltaBuilds.Add(1)
			} else {
				fullBuilds.Add(1)
			}
			cur.Store(&generation{prep: p})
		}
	}()

	solvers := []Solver{BruteForce{}, ConsumeAttr{}, ConsumeAttrCumul{}, ConsumeQueries{}, MaxFreqItemSets{Backend: BackendExactDFS}}
	for gid := 0; gid < readers; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			s := solvers[gid%len(solvers)]
			for i := 0; i < solvesPer; i++ {
				tuple := tuples[(gid*solvesPer+i)%len(tuples)]
				// Retry loop: a Touch racing the solve surfaces ErrStalePrep;
				// the recovery is to reload the latest generation — exactly
				// what the serving layer's retry does. The writer publishes
				// the next generation only after rebuilding, so wait for it
				// rather than spend the retries reloading the touched one.
				for attempt := 0; ; attempt++ {
					g := cur.Load()
					sol, err := g.prep.SolveContext(context.Background(), s, tuple, 4)
					if err != nil {
						if errors.Is(err, ErrStalePrep) && attempt < 50 {
							for deadline := time.Now().Add(10 * time.Second); cur.Load() == g && time.Now().Before(deadline); {
								runtime.Gosched()
							}
							continue
						}
						t.Errorf("g%d solve %d: %v", gid, i, err)
						return
					}
					// Recount over the generation actually solved. Its log is
					// immutable (writers only Extend), so this is race-free even
					// though newer generations exist by now.
					if got := g.prep.Log().Satisfied(sol.Kept); got != sol.Satisfied {
						t.Errorf("g%d solve %d: reported %d, recount %d", gid, i, sol.Satisfied, got)
						return
					}
					break
				}
			}
		}(gid)
	}
	wg.Wait()
	<-stop

	final := cur.Load().prep
	if final.Segments() < 1 {
		t.Fatalf("final prep has %d segments", final.Segments())
	}
	// Both rebuild flavours must have run: Touch rounds void the lineage
	// certificate (full re-index), every other round extends incrementally.
	if deltaBuilds.Load() == 0 {
		t.Error("no incremental delta builds observed")
	}
	if fullBuilds.Load() == 0 {
		t.Error("no full rebuilds observed (Touch should void the lineage)")
	}
	t.Logf("final generation: %d queries, %d segments; %d delta / %d full rebuilds",
		final.Log().Size(), final.Segments(), deltaBuilds.Load(), fullBuilds.Load())
}
