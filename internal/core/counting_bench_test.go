package core_test

// Benchmarks of the counting solvers' local path — the one body each of
// BruteForce, ConsumeAttr and ConsumeAttrCumul runs over the instance's own
// prepared state. Run with
//
//	go test -run '^$' -bench CountingSolvers -benchmem -cpu 1 ./internal/core

import (
	"context"
	"testing"

	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/gen"
)

// BenchmarkCountingSolvers times greedy (ConsumeAttrCumul), consumeattr and
// brute at solve-read's shape — the unweighted 2,000-query gen.RealWorkload
// log, one index segment — and greedy and consumeattr on the compacted log
// of compactedWorkload, for m cycling over 3–5. Solves go through
// core.WithPrepared, which attaches the index without memoizing answers.
func BenchmarkCountingSolvers(b *testing.B) {
	readLog := gen.RealWorkload(gen.Cars(1000, 2000), 1001, 2000)
	compacted, tuples := compactedWorkload()
	for _, bc := range []struct {
		name   string
		log    *dataset.QueryLog
		solver core.Solver
	}{
		{"solve-read/greedy", readLog, core.ConsumeAttrCumul{}},
		{"solve-read/consumeattr", readLog, core.ConsumeAttr{}},
		{"solve-read/brute", readLog, core.BruteForce{}},
		{"compacted/greedy", compacted, core.ConsumeAttrCumul{}},
		{"compacted/consumeattr", compacted, core.ConsumeAttr{}},
	} {
		prep, err := core.PrepareLog(bc.log)
		if err != nil {
			b.Fatal(err)
		}
		ctx := core.WithPrepared(context.Background(), prep)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := core.Instance{Log: bc.log, Tuple: tuples[i%len(tuples)], M: 3 + i%3}
				if _, err := bc.solver.SolveContext(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
