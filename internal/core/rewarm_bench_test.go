package core_test

// The estimator re-warm a serving node pays per appended log generation,
// on the compacted log of compactedWorkload. Run with
//
//	go test -run '^$' -bench EstimatorRewarm -benchmem -cpu 1 ./internal/core

import (
	"context"
	"testing"

	"standout/internal/core"
	"standout/internal/estimate"
	"standout/internal/gen"
)

// BenchmarkEstimatorRewarm times one re-warm after an append of 8 queries:
// "build" mines the new generation's model from the whole log
// (estimate.Build), "derive" asks EstimatorModel of a PrepareLogFrom prep
// whose predecessor's model is warm, which extends that model over the 8
// queries. Each derive op gets a fresh prep, prepared off the clock.
func BenchmarkEstimatorRewarm(b *testing.B) {
	base, _ := compactedWorkload()
	ctx := context.Background()
	prev, err := core.PrepareLog(base)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := prev.EstimatorModel(ctx); err != nil {
		b.Fatal(err)
	}
	log := base.Extend()
	for _, q := range gen.RealWorkload(gen.Cars(1000, 2000), 7, 8).Queries {
		if err := log.Append(q); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := estimate.Build(log, estimate.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := core.PrepareLogFrom(prev, log)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := p.EstimatorModel(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
