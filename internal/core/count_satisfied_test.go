package core_test

// Benchmark and allocation pin of the subset counts a shard answers for a
// /score request in "subset" mode: one brute batch scored through
// core.CountSatisfied on the prepared compacted log. Run with
//
//	go test -run '^$' -bench CountSatisfied -benchmem -cpu 1 ./internal/core

import (
	"context"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/core"
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
