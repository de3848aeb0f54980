package itemsets

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// listFingerprint flattens a mining result — order included, since the
// canonical ordering is part of the parallel determinism contract.
func listFingerprint(sets []ItemsetCount) string {
	s := ""
	for _, ic := range sets {
		s += fmt.Sprintf("%s:%d;", ic.Items, ic.Support)
	}
	return s
}

// TestMaximalDFSParallelBitIdentical checks the package-level determinism
// contract: the parallel DFS returns the exact canonical list — same sets,
// same supports, same order — as the sequential run, for every worker count.
func TestMaximalDFSParallelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		rows := 3 + r.Intn(14)
		cols := 2 + r.Intn(8)
		density := 0.2 + 0.6*r.Float64()
		tab := randomTable(r, rows, cols, density)
		minSup := 1 + r.Intn(3)
		m := NewMiner(tab)
		seq, err := m.MaximalDFSContext(context.Background(), minSup)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		want := listFingerprint(seq)
		for _, w := range []int{2, 4, 8} {
			got, err := m.MaximalDFSParallelContext(context.Background(), minSup, w)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if key := listFingerprint(got); key != want {
				t.Fatalf("trial %d workers=%d diverged\nseq: %s\npar: %s", trial, w, want, key)
			}
		}
	}
}

// TestMaximalDFSParallelCancellation verifies the parallel miner honors a
// pre-cancelled context: it must return the context error promptly and leak
// no goroutines (the -race -count runs would trip on a stuck worker).
func TestMaximalDFSParallelCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	tab := randomTable(r, 30, 12, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewMiner(tab).MaximalDFSParallelContext(ctx, 1, 4); err == nil {
		t.Fatal("want context error from cancelled parallel mine")
	}
}

// errLater is a context cancelled from the start whose Err still reports
// nil on its first call: the miner's root poll passes, while par.Run's
// context, derived after it, starts cancelled and skips every branch.
type errLater struct {
	context.Context
	calls atomic.Int32
	done  chan struct{}
}

func (c *errLater) Done() <-chan struct{} { return c.done }

func (c *errLater) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestMaximalDFSParallelSkippedBranchesFail: when an outside cancellation
// makes the scheduler skip the root's branches, the mine returns the
// context's error, not the sets of the branches that ran as a complete
// answer.
func TestMaximalDFSParallelSkippedBranchesFail(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	tab := randomTable(r, 30, 12, 0.5)
	m := NewMiner(tab)
	if full, err := m.MaximalDFSParallelContext(context.Background(), 1, 4); err != nil || len(full) == 0 {
		t.Fatalf("uncancelled mine: %d sets, err %v; the test needs a non-empty answer", len(full), err)
	}
	done := make(chan struct{})
	close(done)
	out, err := m.MaximalDFSParallelContext(&errLater{Context: context.Background(), done: done}, 1, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %d sets and err %v, want the cancellation", len(out), err)
	}
	if out != nil {
		t.Errorf("a cancelled mine returned %d sets, want none", len(out))
	}
}

// cancelAfter is a context whose Done channel closes on its polls-th call,
// reporting a deadline. The sequential DFS polls once per node, so the mine
// is cut at the same node however fast the host runs; fired records when.
type cancelAfter struct {
	context.Context
	polls int
	done  chan struct{}
	fired time.Time
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls--; c.polls == 0 {
		c.fired = time.Now()
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// allButK returns the table of every row of width w missing exactly k items.
// At minSup 1 each row is a maximal set, C(w, k) of them.
func allButK(w, k int) *dataset.Table {
	tab := dataset.NewTable(dataset.GenericSchema(w))
	var rec func(start, left int, v bitvec.Vector)
	rec = func(start, left int, v bitvec.Vector) {
		if left == 0 {
			tab.Rows = append(tab.Rows, v.Clone())
			return
		}
		for j := start; j < w; j++ {
			v.Clear(j)
			rec(j+1, left-1, v)
			v.Set(j)
		}
	}
	rec(0, k, bitvec.New(w).Not())
	return tab
}

// TestMaximalDFSCancelReturnsAtOnce: a mine cancelled while it holds many
// found sets returns the context's error, and no list, at once. The table
// has C(20, 5) = 15,504 maximal sets; the sequential DFS has found 10,418 of
// them when the deadline fires at its 18,000th node. Canonicalizing that
// partial list would take hundreds of milliseconds.
func TestMaximalDFSCancelReturnsAtOnce(t *testing.T) {
	m := NewMiner(allButK(20, 5))
	ctx := &cancelAfter{Context: context.Background(), polls: 18_000, done: make(chan struct{})}
	out, err := m.MaximalDFSContext(ctx, 1)
	late := time.Since(ctx.fired)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if out != nil {
		t.Errorf("a cancelled mine returned %d sets, want none", len(out))
	}
	if bound := cancelSlack * 10 * time.Millisecond; late > bound {
		t.Errorf("returned %v after the deadline, want at most %v", late, bound)
	}
}
