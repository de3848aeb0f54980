//go:build go1.24

package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"standout/internal/dataset"
)

// TestWarmedDeltaPrepReleasesPredecessor: a delta prep keeps its
// predecessor reachable only until its own model exists, so a chain of
// warmed generations pins no older prep.
func TestWarmedDeltaPrepReleasesPredecessor(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	log := dataset.NewQueryLog(dataset.GenericSchema(10))
	appendRandom(t, r, log, 120, 4)
	p0, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	next := log.Extend()
	appendRandom(t, r, next, 8, 4)
	p1, err := PrepareLogFrom(p0, next)
	if err != nil {
		t.Fatal(err)
	}
	prev := weak.Make(p0)
	p0 = nil
	runtime.GC()
	if prev.Value() == nil {
		t.Fatal("a cold delta prep let its predecessor go before deriving from it")
	}
	if _, err := p1.EstimatorModel(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if prev.Value() != nil {
		t.Fatal("a warmed delta prep still keeps its predecessor reachable")
	}
	runtime.KeepAlive(p1)
}
