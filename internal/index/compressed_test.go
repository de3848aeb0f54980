package index

import (
	"math/rand"
	"strings"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// sparseLog builds a log with nq queries over width attributes where a few
// attributes are hot and the rest appear in at most a handful of queries —
// the wide-schema shape the compressed representation exists for.
func sparseLog(width, nq int, seed int64) *dataset.QueryLog {
	rng := rand.New(rand.NewSource(seed))
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < nq; i++ {
		q := bitvec.New(width)
		q.Set(rng.Intn(4))           // hot attributes 0..3
		q.Set(4 + rng.Intn(width-4)) // one cold attribute
		log.Queries = append(log.Queries, q)
	}
	return log
}

func TestAutoModePicksPerColumn(t *testing.T) {
	const width, nq = 300, 4096
	log := sparseLog(width, nq, 7)
	ix, err := Build(log)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Mode() != Auto {
		t.Fatalf("Mode = %d, want Auto", ix.Mode())
	}
	freq := ix.AttrFrequencies()
	hot, cold := 0, 0
	for a := 0; a < width; a++ {
		comp := ix.ColumnCompressed(a)
		wantComp := freq[a]*autoDensityDiv <= nq
		if comp != wantComp {
			t.Fatalf("column %d (freq %d of %d): compressed=%t, heuristic wants %t",
				a, freq[a], nq, comp, wantComp)
		}
		if comp {
			cold++
		} else {
			hot++
		}
	}
	if hot == 0 || cold == 0 {
		t.Fatalf("degenerate workload: %d dense, %d compressed columns — test proves nothing", hot, cold)
	}

	// Below the size floor nothing compresses, however sparse.
	small := sparseLog(width, autoMinQueries-1, 7)
	sx, err := Build(small)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < width; a++ {
		if sx.ColumnCompressed(a) {
			t.Fatalf("column %d compressed on a %d-query log, below the %d floor",
				a, autoMinQueries-1, autoMinQueries)
		}
	}

	mem := ix.Mem()
	if mem.CompressedColumns != cold || mem.DenseColumns != hot {
		t.Fatalf("Mem columns %d/%d, counted %d/%d",
			mem.DenseColumns, mem.CompressedColumns, hot, cold)
	}
	if mem.Bytes <= 0 {
		t.Fatalf("Mem.Bytes = %d", mem.Bytes)
	}

	// The whole point: the auto layout must be smaller than all-dense.
	dx, err := BuildWith(log, Options{Mode: ForceDense})
	if err != nil {
		t.Fatal(err)
	}
	if auto, dense := ix.Mem().Bytes, dx.Mem().Bytes; auto >= dense {
		t.Fatalf("auto layout %d bytes, all-dense %d — compression bought nothing", auto, dense)
	}
}

// TestModesAgree drives random logs and tuples through all three modes and
// every scoring entry point, demanding bit-identical sets and counts.
func TestModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		width := 2 + rng.Intn(12)
		nq := 1 + rng.Intn(60)
		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		for i := 0; i < nq; i++ {
			q := bitvec.New(width)
			for q.Count() == 0 {
				for a := 0; a < width; a++ {
					if rng.Intn(3) == 0 {
						q.Set(a)
					}
				}
			}
			log.Queries = append(log.Queries, q)
		}

		var ixs [3]*Index
		for m, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
			ix, err := BuildWith(log, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			ixs[m] = ix
		}
		if !ixs[2].ColumnCompressed(0) {
			t.Fatal("ForceCompressed left column 0 dense")
		}
		if ixs[1].ColumnCompressed(0) {
			t.Fatal("ForceDense compressed column 0")
		}

		for probe := 0; probe < 10; probe++ {
			tuple := bitvec.New(width)
			for a := 0; a < width; a++ {
				if rng.Intn(2) == 0 {
					tuple.Set(a)
				}
			}
			kept := bitvec.New(width)
			for _, a := range tuple.Ones() {
				if rng.Intn(2) == 0 {
					kept.Set(a)
				}
			}
			drop := tuple.AndNot(kept).Ones()

			ref := ixs[0].Candidates(tuple)
			refDrop := ixs[0].SatisfiedDropping(ref, drop, nil)
			for m := 1; m < 3; m++ {
				ix := ixs[m]
				cand := ix.Candidates(tuple)
				if ref.Count() != cand.Count() {
					t.Fatalf("mode %d: Candidates %d, Auto %d", m, cand.Count(), ref.Count())
				}
				for i := range ref {
					if ref[i] != cand[i] {
						t.Fatalf("mode %d: candidate words diverge", m)
					}
				}
				if got := ix.SatisfiedDropping(cand, drop, nil); got != refDrop {
					t.Fatalf("mode %d: SatisfiedDropping %d, Auto %d", m, got, refDrop)
				}
				cs := ix.CandidateSet(tuple)
				if got := ix.SatisfiedDroppingBits(cs, drop, nil); got != refDrop {
					t.Fatalf("mode %d: SatisfiedDroppingBits %d, Auto %d", m, got, refDrop)
				}
				if got := ix.SatisfiedWithinBits(cs, kept, ix.NewScratch()); got != refDrop {
					t.Fatalf("mode %d: SatisfiedWithinBits %d, Auto %d", m, got, refDrop)
				}
				if got, want := ix.Satisfied(kept), log.Satisfied(kept); got != want {
					t.Fatalf("mode %d: Satisfied %d, log %d", m, got, want)
				}
				for k := 0; k <= ix.MaxQuerySize(); k++ {
					if got, want := ix.SizeAtMost(k).Count(), ixs[0].SizeAtMost(k).Count(); got != want {
						t.Fatalf("mode %d: SizeAtMost(%d) %d, Auto %d", m, k, got, want)
					}
				}
				for a := 0; a < width; a++ {
					want := ixs[0].QueriesWith(a).Count()
					if got := ix.QueriesWith(a).Count(); got != want {
						t.Fatalf("mode %d: QueriesWith(%d) %d, Auto %d", m, a, got, want)
					}
					if got := ix.Column(a).Count(); got != want {
						t.Fatalf("mode %d: Column(%d) count %d, Auto %d", m, a, got, want)
					}
				}
			}
		}
	}
}

// TestScratchReuseNoAlloc pins the hot-loop allocation contract: scoring
// through a warm Scratch allocates nothing, in both representations.
func TestScratchReuseNoAlloc(t *testing.T) {
	log := sparseLog(200, 2048, 13)
	for _, mode := range []Mode{ForceDense, ForceCompressed} {
		ix, err := BuildWith(log, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		tuple := bitvec.New(200)
		for a := 0; a < 40; a++ {
			tuple.Set(a)
		}
		cand := ix.CandidateSet(tuple)
		drop := []int{1, 3, 17}
		sc := ix.NewScratch()
		ix.SatisfiedDroppingBits(cand, drop, sc) // warm the scratch
		allocs := testing.AllocsPerRun(50, func() {
			ix.SatisfiedDroppingBits(cand, drop, sc)
		})
		if allocs != 0 {
			t.Fatalf("mode %d: warm SatisfiedDroppingBits allocates %.1f/op, want 0", mode, allocs)
		}
	}
}

// TestContainingMixedLayoutsNoAlloc pins the superset kernel on a log big
// enough for Auto to mix representations — hot columns dense, cold columns
// compressed — so the compressed working set is ANDed with dense columns.
// Every mode must agree with a scan on weighted and unweighted logs, and a
// warm scratch must make every call allocation-free.
func TestContainingMixedLayoutsNoAlloc(t *testing.T) {
	const width, nq = 128, 4096
	rng := rand.New(rand.NewSource(5))
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < nq; i++ {
		q := bitvec.New(width)
		for a := 0; a < 4; a++ { // hot attributes 0..3, each in half the queries
			if rng.Intn(2) == 0 {
				q.Set(a)
			}
		}
		q.Set(4 + rng.Intn(width-4)) // one cold attribute
		log.Queries = append(log.Queries, q)
	}
	probes := []bitvec.Vector{
		bitvec.New(width),
		bitvec.FromIndices(width, 9),
		bitvec.FromIndices(width, 0, 1),       // dense AND dense
		bitvec.FromIndices(width, 0, 2, 3),    // three dense columns
		bitvec.FromIndices(width, 1, 7),       // compressed first, then dense
		bitvec.FromIndices(width, 0, 1, 2, 8), // compressed AND three dense
		bitvec.FromIndices(width, 5, 6),       // two cold columns: empty
	}
	for _, weighted := range []bool{false, true} {
		if weighted {
			log.Weights = make([]int, nq)
			for i := range log.Weights {
				log.Weights[i] = 1 + i%7
			}
		}
		for _, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
			ix, err := BuildWith(log, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if mode == Auto && (ix.ColumnCompressed(0) || !ix.ColumnCompressed(7)) {
				t.Fatal("Auto did not mix dense hot columns with compressed cold ones")
			}
			sc := ix.NewScratch()
			for _, v := range probes {
				want := 0
				for qi, q := range log.Queries {
					if v.SubsetOf(q) {
						want += log.Weight(qi)
					}
				}
				if got := ix.Containing(v, sc); got != want {
					t.Fatalf("weighted %t mode %d: Containing(%v) = %d, scan %d", weighted, mode, v.Ones(), got, want)
				}
				if got := ix.Containing(v, nil); got != want {
					t.Fatalf("weighted %t mode %d: Containing(%v, nil) = %d, scan %d", weighted, mode, v.Ones(), got, want)
				}
				if allocs := testing.AllocsPerRun(20, func() { ix.Containing(v, sc) }); allocs != 0 {
					t.Fatalf("weighted %t mode %d: Containing(%v) allocates %.1f/op with a scratch, want 0",
						weighted, mode, v.Ones(), allocs)
				}
			}
		}
	}
}

func TestBitmapGetBounds(t *testing.T) {
	b := Bitmap{0b101}
	if !b.Get(0) || b.Get(1) || !b.Get(2) || b.Get(63) {
		t.Fatal("Get misreads in-range bits")
	}
	for _, i := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of range") {
					t.Fatalf("Get(%d) panic %v lacks a descriptive message", i, r)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestColumnAccessorsPanicOutOfRange(t *testing.T) {
	log := sparseLog(10, 8, 1)
	ix, err := Build(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { ix.QueriesWith(10) },
		func() { ix.QueriesWith(-1) },
		func() { ix.Column(10) },
		func() { ix.ColumnCompressed(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on out-of-range attribute")
				}
			}()
			f()
		}()
	}
}

// TestCompressedSharedReadOnly proves the scoring paths never mutate the
// index's own column/bucket storage or the caller's candidate set.
func TestCompressedSharedReadOnly(t *testing.T) {
	log := sparseLog(50, 64, 3)
	ix, err := BuildWith(log, Options{Mode: ForceCompressed})
	if err != nil {
		t.Fatal(err)
	}
	tuple := bitvec.New(50)
	for a := 0; a < 20; a++ {
		tuple.Set(a)
	}
	cs := ix.CandidateSet(tuple)
	before := cs.Key()
	bucketBefore := ix.SizeAtMost(ix.MaxQuerySize()).Count()
	sc := ix.NewScratch()
	ix.SatisfiedDroppingBits(cs, []int{0, 1, 2}, sc)
	ix.SatisfiedWithinBits(cs, bitvec.New(50), sc)
	if cs.Key() != before {
		t.Fatal("scoring mutated the candidate set")
	}
	if ix.SizeAtMost(ix.MaxQuerySize()).Count() != bucketBefore {
		t.Fatal("scoring mutated a size bucket")
	}
	for a := 0; a < 50; a++ {
		want := 0
		for _, q := range log.Queries {
			if q.Get(a) {
				want++
			}
		}
		if got := ix.Column(a).Count(); got != want {
			t.Fatalf("column %d count %d after scoring, want %d", a, got, want)
		}
	}
}
