package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/gen"
	"standout/internal/obsv"
)

// TestDefaultAlgoAnswersWideTuples: /solve with the default algo
// (mfi-exact) answers wide tuples at m=5 exactly and undegraded within the
// default 2 s deadline. The tuples are the first twelve of 18-24 attributes
// in the cars surrogate, over a 2,000-query real-workload log. On three of
// them a mine of the whole projected lattice runs past 10 s at m=5, so the
// solver must mine only the level it searches.
func TestDefaultAlgoAnswersWideTuples(t *testing.T) {
	log := gen.RealWorkload(gen.Cars(1000, 2000), 1001, 2000)
	var wide []bitvec.Vector
	for _, row := range gen.Cars(7, gen.CarsSize).Rows {
		if n := row.Count(); n >= 18 && n <= 24 {
			wide = append(wide, row)
			if len(wide) == 12 {
				break
			}
		}
	}
	srv, err := New(Config{Log: log, Registry: obsv.NewRegistry(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	prep, err := core.PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	bctx := core.WithPrepared(context.Background(), prep)

	const m = 5
	for i, tuple := range wide {
		start := time.Now()
		status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuple.String(), M: m})
		elapsed := time.Since(start)
		if status != http.StatusOK {
			t.Fatalf("tuple %d (%d attributes): status %d after %v, body %s", i, tuple.Count(), status, elapsed, raw)
		}
		got := decode[solveResponse](t, raw)
		if got.Degraded || got.Solver != "mfi-exact" || !got.Optimal {
			t.Errorf("tuple %d: solver %s, degraded %v, optimal %v; want an undegraded exact mfi-exact answer",
				i, got.Solver, got.Degraded, got.Optimal)
		}
		if limit := srv.cfg.DefaultTimeout; elapsed > limit {
			t.Errorf("tuple %d: answered after %v, past the %v deadline", i, elapsed, limit)
		}
		want, err := core.BruteForce{}.SolveContext(bctx, core.Instance{Log: log, Tuple: tuple, M: m})
		if err != nil {
			t.Fatal(err)
		}
		if got.Satisfied != want.Satisfied {
			t.Errorf("tuple %d: mfi-exact satisfies %d, brute force %d", i, got.Satisfied, want.Satisfied)
		}
	}
}
