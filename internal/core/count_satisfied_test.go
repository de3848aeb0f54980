package core_test

// Benchmark and allocation pin of the subset counts a shard answers for a
// /score request in "subset" mode: one brute batch scored through
// core.CountSatisfied on the prepared compacted log, and allocation pins of
// the counting solvers' local path. Run with
//
//	go test -run '^$' -bench CountSatisfied -benchmem -cpu 1 ./internal/core

import (
	"context"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/gen"
)

// bruteCandidates returns the first n m-attribute compressions of tuple in
// lexicographic order — the candidates of one brute batch.
func bruteCandidates(tuple bitvec.Vector, m, n int) []bitvec.Vector {
	ones := tuple.Ones()
	var out []bitvec.Vector
	comb := make([]int, m)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if len(out) == n {
			return
		}
		if depth == m {
			v := bitvec.New(tuple.Width())
			for _, i := range comb {
				v.Set(ones[i])
			}
			out = append(out, v)
			return
		}
		for i := start; i < len(ones); i++ {
			comb[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// brutePrepared prepares the compacted log and returns, for every hot tuple
// with at least 256 compressions of size m, its first 256 of them.
func brutePrepared(tb testing.TB, m int) (context.Context, [][]bitvec.Vector) {
	log, tuples := compactedWorkload()
	prep, err := core.PrepareLog(log)
	if err != nil {
		tb.Fatal(err)
	}
	var batches [][]bitvec.Vector
	for _, tuple := range tuples {
		if b := bruteCandidates(tuple, m, 256); len(b) == 256 {
			batches = append(batches, b)
		}
	}
	if len(batches) == 0 {
		tb.Fatalf("no hot tuple has 256 compressions of size %d", m)
	}
	return core.WithPrepared(context.Background(), prep), batches
}

// BenchmarkCountSatisfied times one 256-candidate brute batch at m = 3
// through CountSatisfied with the compacted log's prep attached.
func BenchmarkCountSatisfied(b *testing.B) {
	ctx, batches := brutePrepared(b, 3)
	log, _ := compactedWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CountSatisfied(ctx, log, batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCountSatisfiedAllocsFixed pins that a prepared CountSatisfied call
// allocates a fixed number of times, however many candidates it scores.
func TestCountSatisfiedAllocsFixed(t *testing.T) {
	log, _ := compactedWorkload()
	for _, m := range []int{3, 4} {
		ctx, batches := brutePrepared(t, m)
		batch := batches[0]
		var base float64
		for _, n := range []int{1, 16, 256} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := core.CountSatisfied(ctx, log, batch[:n]); err != nil {
					t.Fatal(err)
				}
			})
			if n == 1 {
				base = allocs
			} else if allocs != base {
				t.Errorf("m=%d: CountSatisfied of %d candidates allocates %.0f times, of one %.0f", m, n, allocs, base)
			}
		}
	}
}

// TestCountingSolverAllocsPinned pins the warm allocations of one counting
// solve with a prep attached, on solve-read's log and on the compacted log
// (BenchmarkCountingSolvers' shapes). Such a solve allocates its candidate
// sets, candidate vectors, counts and answer; it copies no query of the log
// into a restricted log and takes its kernel scratches from the prep's free
// list. The test fails when a count rises.
func TestCountingSolverAllocsPinned(t *testing.T) {
	readLog := gen.RealWorkload(gen.Cars(1000, 2000), 1001, 2000)
	compacted, tuples := compactedWorkload()
	for _, tc := range []struct {
		name   string
		log    *dataset.QueryLog
		solver core.Solver
		want   float64
	}{
		{"solve-read/greedy", readLog, core.ConsumeAttrCumul{}, 16},
		{"solve-read/consumeattr", readLog, core.ConsumeAttr{}, 16},
		{"solve-read/brute", readLog, core.BruteForce{}, 281},
		{"compacted/greedy", compacted, core.ConsumeAttrCumul{}, 16},
		{"compacted/consumeattr", compacted, core.ConsumeAttr{}, 16},
		{"compacted/brute", compacted, core.BruteForce{}, 282},
	} {
		prep, err := core.PrepareLog(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		ctx := core.WithPrepared(context.Background(), prep)
		in := core.Instance{Log: tc.log, Tuple: tuples[0], M: 4}
		got := testing.AllocsPerRun(10, func() {
			if _, err := tc.solver.SolveContext(ctx, in); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op", tc.name, got)
		if got > tc.want {
			t.Errorf("%s: a warm solve allocates %.0f times, pinned at %.0f", tc.name, got, tc.want)
		}
	}
}
