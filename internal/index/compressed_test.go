package index

import (
	"math/rand"
	"slices"
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
	freq := ix.AttrFrequencies()
	hot, cold := 0, 0
	for a := 0; a < width; a++ {
		comp := ix.cols[a].comp != nil
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
		if sx.cols[a].comp != nil {
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
// every scoring entry point, demanding bit-identical sets and counts. The
// logs range from too few attribute pairs for a pair table to enough, so
// Containing runs both its table lookup and its column AND.
func TestModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tables, columns int // trials whose Auto index keeps / lacks a pair table
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
		if ixs[2].cols[0].comp == nil {
			t.Fatal("ForceCompressed left column 0 dense")
		}
		if ixs[1].cols[0].comp != nil {
			t.Fatal("ForceDense compressed column 0")
		}
		if ixs[0].pairs != nil {
			tables++
		} else {
			columns++
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
			a, b := rng.Intn(width), rng.Intn(width-1)
			if b >= a {
				b++
			}
			for _, v := range []bitvec.Vector{kept, bitvec.FromIndices(width, a, b)} {
				want := 0
				for _, q := range log.Queries {
					if v.SubsetOf(q) {
						want++
					}
				}
				for m, ix := range ixs {
					if got := ix.Containing(v, nil); got != want {
						t.Fatalf("mode %d: Containing(%v) = %d, scan %d", m, v.Ones(), got, want)
					}
				}
			}

			ref := ixs[0].CandidateSet(tuple)
			refDrop := ixs[0].SatisfiedDropping(ref, drop, nil)
			for m := 1; m < 3; m++ {
				ix := ixs[m]
				cs := ix.CandidateSet(tuple)
				if cs.Key() != ref.Key() {
					t.Fatalf("mode %d: CandidateSet %v, Auto %v", m, cs.Ones(), ref.Ones())
				}
				if got := ix.SatisfiedDropping(cs, drop, nil); got != refDrop {
					t.Fatalf("mode %d: SatisfiedDropping %d, Auto %d", m, got, refDrop)
				}
				if got := ix.Satisfied(kept, ix.NewScratch()); got != refDrop {
					t.Fatalf("mode %d: Satisfied %d, Auto SatisfiedDropping %d", m, got, refDrop)
				}
				if got, want := ix.Satisfied(kept, nil), log.Satisfied(kept); got != want {
					t.Fatalf("mode %d: Satisfied %d, log %d", m, got, want)
				}
				for k := 0; k <= ix.maxSize; k++ {
					if got, want := ix.buckets[k].set.Count(), ixs[0].buckets[k].set.Count(); got != want {
						t.Fatalf("mode %d: bucket %d holds %d, Auto %d", m, k, got, want)
					}
				}
				for a := 0; a < width; a++ {
					if got, want := ix.cols[a].set.Key(), ixs[0].cols[a].set.Key(); got != want {
						t.Fatalf("mode %d: column %d %v, Auto %v", m, a, ix.cols[a].set.Ones(), ixs[0].cols[a].set.Ones())
					}
				}
			}
		}
	}
	if tables == 0 || columns == 0 {
		t.Errorf("%d trials with a pair table, %d without: Containing's two paths are not both covered", tables, columns)
	}
}

// TestScratchReuseNoAlloc pins the hot-loop allocation contract: the
// counting kernels allocate nothing with a warm Scratch, in every mode. Auto
// mixes the layouts on this log — hot columns dense, cold ones compressed —
// so a dense working set is peeled by compressed columns too.
func TestScratchReuseNoAlloc(t *testing.T) {
	log := sparseLog(200, 2048, 13)
	for _, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
		ix, err := BuildWith(log, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if mode == Auto && (ix.allDense || ix.cols[1].comp != nil || ix.cols[17].comp == nil) {
			t.Fatal("Auto did not mix dense hot columns with compressed cold ones")
		}
		tuple := bitvec.New(200)
		for a := 0; a < 40; a++ {
			tuple.Set(a)
		}
		kept := tuple.Clone()
		drop := []int{1, 3, 17, 18, 19}
		for _, a := range drop {
			kept.Clear(a)
		}
		pair := bitvec.FromIndices(200, 0, 17)
		cand := ix.CandidateSet(tuple)
		sc := ix.NewScratch()
		for name, kernel := range map[string]func() int{
			"SatisfiedDropping": func() int { return ix.SatisfiedDropping(cand, drop, sc) },
			"Satisfied":         func() int { return ix.Satisfied(kept, sc) },
			"Containing":        func() int { return ix.Containing(pair, sc) },
		} {
			kernel() // warm the scratch
			if allocs := testing.AllocsPerRun(50, func() { kernel() }); allocs != 0 {
				t.Fatalf("mode %d: warm %s allocates %.1f/op, want 0", mode, name, allocs)
			}
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
			if mode == Auto && (ix.cols[0].comp != nil || ix.cols[7].comp == nil) {
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

// TestContainingBatchMixedLayoutsNoAlloc pins the batch superset kernel on
// the log of TestContainingMixedLayoutsNoAlloc, where Auto keeps the hot
// columns dense and compresses the cold ones: greedy rounds over a dense
// common part whose extra columns are dense (the fused pass) or compressed
// (Containing), a batch whose common part holds a compressed column, and
// one of unrelated candidates. Every count must equal a scan in every mode,
// weighted and unweighted, and a warm scratch must make every call
// allocation-free.
func TestContainingBatchMixedLayoutsNoAlloc(t *testing.T) {
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
	round := func(picked ...int) []bitvec.Vector {
		var out []bitvec.Vector
		for j := 0; j < 12; j++ {
			if !slices.Contains(picked, j) {
				out = append(out, bitvec.FromIndices(width, append(slices.Clone(picked), j)...))
			}
		}
		return out
	}
	batches := map[string][]bitvec.Vector{
		"round after three picks":   round(0, 1, 2),
		"round after four picks":    round(0, 1, 2, 3),
		"compressed common column":  round(0, 1, 9),
		"two extras and duplicates": {bitvec.FromIndices(width, 0, 1, 2, 3), bitvec.FromIndices(width, 0, 1, 3, 7), bitvec.FromIndices(width, 0, 1, 2, 3)},
		"extras in two words":       {bitvec.FromIndices(width, 0, 1, 2, 3), bitvec.FromIndices(width, 0, 1, 2, 5, 70)},
		"unrelated": {bitvec.New(width), bitvec.FromIndices(width, 9), bitvec.FromIndices(width, 5, 6),
			bitvec.FromIndices(width, 0, 1, 2, 3), bitvec.FromIndices(width, 1, 2, 3, 8, 40)},
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
			if mode == Auto && (ix.cols[0].comp != nil || ix.cols[7].comp == nil) {
				t.Fatal("Auto did not mix dense hot columns with compressed cold ones")
			}
			sc := ix.NewScratch()
			for name, batch := range batches {
				out := make([]int, len(batch))
				ix.ContainingBatch(batch, out, sc)
				for ci, v := range batch {
					want := 0
					for qi, q := range log.Queries {
						if v.SubsetOf(q) {
							want += log.Weight(qi)
						}
					}
					if out[ci] != want {
						t.Fatalf("weighted %t mode %d %s: ContainingBatch(%v) = %d, scan %d", weighted, mode, name, v.Ones(), out[ci], want)
					}
				}
				if allocs := testing.AllocsPerRun(20, func() { ix.ContainingBatch(batch, out, sc) }); allocs != 0 {
					t.Fatalf("weighted %t mode %d %s: ContainingBatch allocates %.1f/op with a warm scratch, want 0",
						weighted, mode, name, allocs)
				}
			}
		}
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
	bucketBefore := ix.buckets[ix.maxSize].set.Count()
	sc := ix.NewScratch()
	ix.SatisfiedDropping(cs, []int{0, 1, 2}, sc)
	ix.Satisfied(tuple, sc)
	if cs.Key() != before {
		t.Fatal("scoring mutated the candidate set")
	}
	if ix.buckets[ix.maxSize].set.Count() != bucketBefore {
		t.Fatal("scoring mutated a size bucket")
	}
	for a := 0; a < 50; a++ {
		want := 0
		for _, q := range log.Queries {
			if q.Get(a) {
				want++
			}
		}
		if got := ix.cols[a].set.Count(); got != want {
			t.Fatalf("column %d count %d after scoring, want %d", a, got, want)
		}
	}
}
