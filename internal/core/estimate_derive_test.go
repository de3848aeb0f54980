package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/estimate"
	"standout/internal/fault"
	"standout/internal/obsv"
)

// appendRandom appends n random weighted queries (1–5 attributes, weights
// 1..maxW) to log.
func appendRandom(t *testing.T, r *rand.Rand, log *dataset.QueryLog, n, maxW int) {
	t.Helper()
	for i := 0; i < n; i++ {
		q := bitvec.New(log.Width())
		for k := 1 + r.Intn(5); k > 0; k-- {
			q.Set(r.Intn(1+r.Intn(log.Width())) % log.Width())
		}
		if err := log.AppendWeighted(q, 1+r.Intn(maxW)); err != nil {
			t.Fatal(err)
		}
	}
}

// warm returns p's EstimatorModel after checking it equals a fresh Build of
// p's log, and the trace counters the call left.
func warm(t *testing.T, p *PreparedLog) (extends, builds int64) {
	t.Helper()
	tr := obsv.NewTrace()
	got, err := p.EstimatorModel(obsv.WithTrace(context.Background(), tr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := estimate.Build(p.Log(), estimate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("prep over %d queries (delta %v): model differs from Build (%d vs %d itemsets)",
			p.Log().Size(), p.Delta(), got.Itemsets(), want.Itemsets())
	}
	return tr.Counter("estimate.extends"), tr.Counter("estimate.builds")
}

// TestEstimatorModelDerivedMatchesBuild is the differential over
// PrepareLogFrom chains: every warmed generation's model equals
// estimate.Build on its log, whether it was derived or built. The chains mix
// generations warmed at once, generations never warmed before a later one
// resolves them, preps whose compaction was skipped, a Touch that forces a
// full build, and an in-place Append to a predecessor's log.
func TestEstimatorModelDerivedMatchesBuild(t *testing.T) {
	noMerge := fault.WithInjector(context.Background(),
		fault.New(1, fault.Rule{Site: "core.prep.compact", Every: 1, Kind: fault.KindError, Msg: "keep segments"}))
	for chain := 0; chain < 6; chain++ {
		r := rand.New(rand.NewSource(int64(chain) + 71))
		log := dataset.NewQueryLog(dataset.GenericSchema(10 + chain))
		appendRandom(t, r, log, 150, 20)
		p, err := PrepareLog(log)
		if err != nil {
			t.Fatal(err)
		}
		if chain%2 == 0 {
			warm(t, p)
		}
		derived := 0
		for g := 0; g < 24; g++ {
			switch g % 8 {
			case 3: // Touch: the next prep is a full build.
				log.Touch()
				if p, err = PrepareLogFrom(p, log); err != nil {
					t.Fatal(err)
				}
				if p.Delta() {
					t.Fatal("prep of a touched log is a delta")
				}
				if extends, builds := warm(t, p); extends != 0 || builds != 1 {
					t.Fatalf("touched generation: %d extends, %d builds; want a full build", extends, builds)
				}
				continue
			case 6: // In-place Append to the predecessor's log after the extend.
				next := log.Extend()
				appendRandom(t, r, next, 4, 30)
				if p, err = PrepareLogFrom(p, next); err != nil {
					t.Fatal(err)
				}
				appendRandom(t, r, log, 1, 1)
				if extends, _ := warm(t, p); extends != 0 {
					t.Fatalf("derived from a predecessor whose log grew in place (%d extends)", extends)
				}
				log = next
				continue
			}
			next := log.Extend()
			appendRandom(t, r, next, 1+r.Intn(12), 1+r.Intn(300))
			ctx := context.Background()
			if g%3 == 1 {
				ctx = noMerge
			}
			if p, err = PrepareLogFromContext(ctx, p, next); err != nil {
				t.Fatal(err)
			}
			if !p.Delta() {
				t.Fatal("append generation not prepared as a delta")
			}
			log = next
			if g%4 == 1 {
				continue // left cold: a later warm resolves it through the chain
			}
			if extends, _ := warm(t, p); extends == 0 {
				t.Fatalf("generation %d: delta prep did not derive its model", g)
			}
			derived++
		}
		if derived == 0 {
			t.Fatal("no generation derived its model")
		}
	}
}

// TestEstimatorModelReadyDuringBuild holds a model build in flight and
// checks that the ladder's probe neither waits for it nor sees a model
// before it is published.
func TestEstimatorModelReadyDuringBuild(t *testing.T) {
	p, err := PrepareLog(estimateTestLog(t))
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	p.estHook = func() {
		close(entered)
		<-release
	}
	built := make(chan error, 1)
	go func() {
		_, err := p.EstimatorModel(context.Background())
		built <- err
	}()
	<-entered
	probe := make(chan *estimate.Model, 1)
	go func() { probe <- p.EstimatorModelReady() }()
	select {
	case m := <-probe:
		if m != nil {
			t.Fatal("probe returned a model before the build finished")
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("EstimatorModelReady waited on the in-flight build")
	}
	close(release)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if p.EstimatorModelReady() == nil {
		t.Fatal("model not published after the build")
	}
}

// TestEstimatorModelDeriveCancelled: a cancelled context fails a delta
// prep's model without making the failure sticky, and the predecessor link
// survives for the next caller to derive through.
func TestEstimatorModelDeriveCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	log := dataset.NewQueryLog(dataset.GenericSchema(9))
	appendRandom(t, r, log, 80, 5)
	p0, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	next := log.Extend()
	appendRandom(t, r, next, 6, 5)
	p1, err := PrepareLogFrom(p0, next)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p1.EstimatorModel(cancelled); err == nil {
		t.Fatal("cancelled model build succeeded")
	}
	if extends, builds := warm(t, p1); extends != 1 || builds != 1 {
		t.Fatalf("after cancellation: %d extends, %d builds; want the root built and p1 derived", extends, builds)
	}
}

// TestEstimatorModelChainConcurrent warms a cold chain of delta generations
// from several goroutines at once, each starting at a different generation:
// every caller of one prep must get the same model, and each generation's
// model must equal Build on its log.
func TestEstimatorModelChainConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	log := dataset.NewQueryLog(dataset.GenericSchema(12))
	appendRandom(t, r, log, 200, 10)
	p, err := PrepareLog(log)
	if err != nil {
		t.Fatal(err)
	}
	preps := []*PreparedLog{p}
	for g := 0; g < 6; g++ {
		next := log.Extend()
		appendRandom(t, r, next, 1+r.Intn(8), 1+r.Intn(100))
		if p, err = PrepareLogFrom(p, next); err != nil {
			t.Fatal(err)
		}
		preps, log = append(preps, p), next
	}
	const callers = 12
	models := make([]*estimate.Model, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := preps[len(preps)-1-i%len(preps)].EstimatorModel(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := range models {
		if p := preps[len(preps)-1-i%len(preps)]; models[i] != p.EstimatorModelReady() {
			t.Fatalf("caller %d got a model other than its prep's", i)
		}
	}
	for _, p := range preps {
		warm(t, p)
	}
}
