package compact

// Benchmark of compaction on the start-up log of the ingest-mixed and
// shard-fanout benchmark workloads: gen.RealWorkload's 200,000 raw queries
// over the Cars schema. Run with
//
//	go test -run '^$' -bench Compact -benchmem -cpu 1 ./internal/compact

import (
	"testing"

	"standout/internal/gen"
)

func BenchmarkCompact(b *testing.B) {
	raw := gen.RealWorkload(gen.Cars(1000, 2000), 1001, 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _ := Compact(raw); out.Size() == 0 {
			b.Fatal("compaction emptied the log")
		}
	}
}
