package core_test

// Benchmarks of mfi-exact, the default /solve algo. Run with
//
//	go test -run '^$' -bench MFIExact -benchmem -cpu 1 ./internal/core

import (
	"context"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/gen"
)

// rowsOfSize returns the first n rows of rows with lo to hi attributes.
func rowsOfSize(rows []bitvec.Vector, lo, hi, n int) []bitvec.Vector {
	var out []bitvec.Vector
	for _, r := range rows {
		if c := r.Count(); c >= lo && c <= hi {
			out = append(out, r)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// BenchmarkMFIExact times MaxFreqItemSets with the exact DFS over
// solve-read's 2,000-query log, with a prep attached as the server does.
// "solve-read" cycles through 64 tuples of at most 24 attributes at m=3,
// the shape perfbench's solve-read sends. "wide" cycles through the six
// tuples of 18–20 attributes among ROADMAP item 2's twelve wide tuples, at
// m=5. A mine of the whole projected lattice takes under half a second on
// these and seconds on the wider six, so this shape also runs against a
// miner without the level floor.
func BenchmarkMFIExact(b *testing.B) {
	log := gen.RealWorkload(gen.Cars(1000, 2000), 1001, 2000)
	prep, err := core.PrepareLog(log)
	if err != nil {
		b.Fatal(err)
	}
	ctx := core.WithPrepared(context.Background(), prep)
	for _, bc := range []struct {
		name   string
		tuples []bitvec.Vector
		m      int
	}{
		{"solve-read", rowsOfSize(gen.Cars(10, gen.CarsSize).Rows, 0, 24, 64), 3},
		{"wide", rowsOfSize(gen.Cars(7, gen.CarsSize).Rows, 18, 20, 6), 5},
	} {
		s := core.MaxFreqItemSets{Backend: core.BackendExactDFS}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := core.Instance{Log: log, Tuple: bc.tuples[i%len(bc.tuples)], M: bc.m}
				if _, err := s.SolveContext(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
