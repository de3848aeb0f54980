package par

// BenchmarkRun measures the scheduler's own cost per job: 4,096 no-op items,
// so the time is claiming, bookkeeping and goroutine start-up. Run with
//
//	go test -run '^$' -bench Run -benchmem ./internal/par

import (
	"context"
	"fmt"
	"testing"
)

func BenchmarkRun(b *testing.B) {
	nop := func(context.Context, int) error { return nil }
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(context.Background(), 4096, Options{Workers: workers}, nop)
			}
		})
	}
}
