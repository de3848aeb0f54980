package core_test

// Benchmarks of the counting solvers' local path — what BruteForce,
// ConsumeAttr and ConsumeAttrCumul run over the instance's own prepared
// state. Run with
//
//	go test -run '^$' -bench CountingSolvers -benchmem -cpu 1 ./internal/core

import (
	"context"
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/gen"
)

// BenchmarkCountingSolvers times greedy (ConsumeAttrCumul), consumeattr and
// brute at solve-read's shape — the unweighted 2,000-query gen.RealWorkload
// log, one index segment — and on the compacted log of compactedWorkload,
// for m cycling over 3–5 through the hot tuples. The short-query rows time
// brute where its pruning is weakest: every query of shortQueryLog fits the
// all-ones tuple and most fit the budget. Solves go through
// core.WithPrepared, which attaches the index without memoizing answers.
func BenchmarkCountingSolvers(b *testing.B) {
	readLog := gen.RealWorkload(gen.Cars(1000, 2000), 1001, 2000)
	compacted, hot := compactedWorkload()
	short, all := shortQueryLog()
	budgets := []int{3, 4, 5}
	for _, bc := range []struct {
		name    string
		log     *dataset.QueryLog
		tuples  []bitvec.Vector
		budgets []int
		solver  core.Solver
	}{
		{"solve-read/greedy", readLog, hot, budgets, core.ConsumeAttrCumul{}},
		{"solve-read/consumeattr", readLog, hot, budgets, core.ConsumeAttr{}},
		{"solve-read/brute", readLog, hot, budgets, core.BruteForce{}},
		{"compacted/greedy", compacted, hot, budgets, core.ConsumeAttrCumul{}},
		{"compacted/consumeattr", compacted, hot, budgets, core.ConsumeAttr{}},
		{"compacted/brute", compacted, hot, budgets, core.BruteForce{}},
		{"short-query/brute-m3", short, all, []int{3}, core.BruteForce{}},
		{"short-query/brute-m6", short, all, []int{6}, core.BruteForce{}},
	} {
		prep, err := core.PrepareLog(bc.log)
		if err != nil {
			b.Fatal(err)
		}
		ctx := core.WithPrepared(context.Background(), prep)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := core.Instance{Log: bc.log, Tuple: bc.tuples[i%len(bc.tuples)], M: bc.budgets[i%len(bc.budgets)]}
				if _, err := bc.solver.SolveContext(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shortQueryLog returns 4,000 unweighted queries of 1–3 attributes over 20
// attributes, and the all-ones tuple.
func shortQueryLog() (*dataset.QueryLog, []bitvec.Vector) {
	const width = 20
	r := rand.New(rand.NewSource(22))
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < 4000; i++ {
		q := bitvec.New(width)
		for k := 1 + r.Intn(3); q.Count() < k; {
			q.Set(r.Intn(width))
		}
		log.Queries = append(log.Queries, q)
	}
	return log, []bitvec.Vector{bitvec.New(width).Not()}
}
