package core_test

// Benchmarks of the co-occurrence ("superset") counts on the data the
// sharded deployment serves: gen.RealWorkload's 200,000 raw queries over the
// Cars schema, folded into weighted entries by compact.Compact. Run with
//
//	go test -run '^$' -bench 'CountContaining|ConsumeAttrCumulSegmented' -benchmem ./internal/core

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/compact"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/gen"
	"standout/internal/shard"
)

var (
	compactedOnce sync.Once
	compactedLog  *dataset.QueryLog
	hotTuples     []bitvec.Vector
)

// compactedWorkload returns the compacted log and 64 Cars rows to solve for.
func compactedWorkload() (*dataset.QueryLog, []bitvec.Vector) {
	compactedOnce.Do(func() {
		tab := gen.Cars(1000, 2000)
		compactedLog, _ = compact.Compact(gen.RealWorkload(tab, 1001, 200000))
		hotTuples = gen.PickTuples(gen.Cars(1003, 2000), 1003, 64)
	})
	return compactedLog, hotTuples
}

// greedyRound returns the candidates of one cumulative-greedy round on
// tuple: picked ∪ {j} for every other tuple attribute j, where picked is the
// tuple's `picks` attributes most frequent in log (ties to the lower
// attribute) — one for the first co-occurrence round, which scores pairs,
// two for the next, which scores triples, and so on.
func greedyRound(log *dataset.QueryLog, tuple bitvec.Vector, picks int) []bitvec.Vector {
	freq := log.AttrFrequencies()
	ones := tuple.Ones()
	byFreq := slices.Clone(ones)
	sort.SliceStable(byFreq, func(i, j int) bool { return freq[byFreq[i]] > freq[byFreq[j]] })
	picked := bitvec.FromIndices(log.Width(), byFreq[:picks]...)
	var cands []bitvec.Vector
	for _, j := range ones {
		if !picked.Get(j) {
			c := picked.Clone()
			c.Set(j)
			cands = append(cands, c)
		}
	}
	return cands
}

// BenchmarkCountContaining times the superset call of one greedy round — the
// pair round ({a, j}), the triple round ({a, b, j}) and the rounds after it,
// with three and four attributes picked — on the full compacted log and on
// one partition of a 4-way shard.Partition split, the call a shard answers,
// by scanning the log and through the prepared index.
func BenchmarkCountContaining(b *testing.B) {
	log, tuples := compactedWorkload()
	parts, err := shard.Partition(context.Background(), log, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, round := range []struct {
		name  string
		picks int
	}{{"pair", 1}, {"triple", 2}, {"quad", 3}, {"quint", 4}} {
		rounds := make([][]bitvec.Vector, len(tuples))
		for i, tuple := range tuples {
			rounds[i] = greedyRound(log, tuple, round.picks)
		}
		for _, l := range []struct {
			name string
			log  *dataset.QueryLog
		}{{"full", log}, {"partition", parts[0]}} {
			prep, err := core.PrepareLog(l.log)
			if err != nil {
				b.Fatal(err)
			}
			for _, bc := range []struct {
				name string
				ctx  context.Context
			}{
				{"scan", context.Background()},
				{"prepared", core.WithPrepared(context.Background(), prep)},
			} {
				b.Run(round.name+"/"+l.name+"/"+bc.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := core.CountContaining(bc.ctx, l.log, rounds[i%len(rounds)]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkConsumeAttrCumulSegmented times one cumulative-greedy solve at
// m = 4 through a weighted prep of the compacted log after two appends of
// eight queries, which leave it with a base and a delta segment.
func BenchmarkConsumeAttrCumulSegmented(b *testing.B) {
	base, tuples := compactedWorkload()
	prep, err := core.PrepareLog(base)
	if err != nil {
		b.Fatal(err)
	}
	fresh := gen.RealWorkload(gen.Cars(1000, 2000), 7, 16)
	log := base
	for k := 0; k < 2; k++ {
		log = log.Extend()
		for _, q := range fresh.Queries[8*k : 8*k+8] {
			if err := log.Append(q); err != nil {
				b.Fatal(err)
			}
		}
		if prep, err = core.PrepareLogFrom(prep, log); err != nil {
			b.Fatal(err)
		}
	}
	if prep.Segments() < 2 {
		b.Fatalf("prep has %d segment(s), want a multi-segment layout", prep.Segments())
	}
	ctx := core.WithPrepared(context.Background(), prep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := core.Instance{Log: log, Tuple: tuples[i%len(tuples)], M: 4}
		if _, err := (core.ConsumeAttrCumul{}).SolveContext(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}
