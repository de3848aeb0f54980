package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"standout/internal/dataset"
)

// TestAppendGenerationsHeapBounded: log generations share one store, so a
// node that holds only its newest generation and that generation's prep
// holds about the same live heap after 500 one-query appends as after 34.
// At one log copy per generation kept reachable, the heap would grow with
// every append instead.
func TestAppendGenerationsHeapBounded(t *testing.T) {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(19))
	start := live()
	log := dataset.NewQueryLog(dataset.GenericSchema(24))
	appendRandom(t, r, log, 4096, 20)
	p, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	var at34 int64
	for g := 1; g <= 500; g++ {
		next := log.Extend()
		appendRandom(t, r, next, 1, 20)
		if p, err = PrepareLogFrom(p, next); err != nil {
			t.Fatal(err)
		}
		// Warm the model as the serving layer does for every generation,
		// so no prep keeps its predecessor.
		if _, err := p.EstimatorModel(ctx); err != nil {
			t.Fatal(err)
		}
		log = next
		if g == 34 {
			at34 = live() - start
		}
	}
	at500 := live() - start
	t.Logf("live heap held: %.2f MiB after 34 appends, %.2f MiB after 500", float64(at34)/(1<<20), float64(at500)/(1<<20))
	if at500 > at34*3/2 {
		t.Fatalf("live heap grew from %d B after 34 appends to %d B after 500 (limit 1.5×)", at34, at500)
	}
	runtime.KeepAlive(p)
}
