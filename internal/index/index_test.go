package index

import (
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// randomLog builds a log with nq random queries of 1..maxQ attributes.
func randomLog(t *testing.T, r *rand.Rand, width, nq, maxQ int) *dataset.QueryLog {
	t.Helper()
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < nq; i++ {
		q := bitvec.New(width)
		k := 1 + r.Intn(maxQ)
		if k > width {
			k = width
		}
		for q.Count() < k {
			q.Set(r.Intn(width))
		}
		if err := log.Append(q); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

func randomVec(r *rand.Rand, width int, density float64) bitvec.Vector {
	v := bitvec.New(width)
	for i := 0; i < width; i++ {
		if r.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// TestAgainstNaive cross-checks every index query form against the direct
// log scans it replaces, over random instances including multi-word bitmaps
// (nq > 64) and multi-word vectors (width > 64).
func TestAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		width := 1 + r.Intn(90) // crosses the 64-bit word boundary
		nq := r.Intn(200)       // crosses the 64-query word boundary
		log := randomLog(t, r, width, nq, 6)
		ix, err := Build(log)
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumQueries() != nq || ix.Width() != width {
			t.Fatalf("shape: got (%d,%d)", ix.NumQueries(), ix.Width())
		}

		sc := ix.NewScratch()
		wantFreq := log.AttrFrequencies()
		for a := 0; a < width; a++ {
			if ix.AttrFrequencies()[a] != wantFreq[a] {
				t.Fatalf("freq[%d] = %d, want %d", a, ix.AttrFrequencies()[a], wantFreq[a])
			}
			if got := ix.Containing(bitvec.FromIndices(width, a), sc); got != wantFreq[a] {
				t.Fatalf("Containing({%d}) = %d, want %d", a, got, wantFreq[a])
			}
		}

		for probe := 0; probe < 10; probe++ {
			tuple := randomVec(r, width, r.Float64())
			if got, want := ix.Satisfied(tuple, nil), log.Satisfied(tuple); got != want {
				t.Fatalf("Satisfied = %d, want %d (width=%d nq=%d)", got, want, width, nq)
			}
			cand := ix.CandidateSet(tuple)
			wantIdx := log.SatisfiedBy(tuple)
			if gotIdx := cand.Ones(); len(gotIdx) != len(wantIdx) {
				t.Fatalf("|CandidateSet| = %d, want %d", len(gotIdx), len(wantIdx))
			} else {
				for i := range gotIdx {
					if gotIdx[i] != wantIdx[i] {
						t.Fatalf("CandidateSet[%d] = %d, want %d", i, gotIdx[i], wantIdx[i])
					}
					if !cand.Get(gotIdx[i]) {
						t.Fatalf("Get(%d) = false inside Ones()", gotIdx[i])
					}
				}
			}

			// Score a random compression of the tuple three ways.
			kept := tuple.Clone()
			for _, a := range tuple.Ones() {
				if r.Intn(2) == 0 {
					kept.Clear(a)
				}
			}
			want := log.Satisfied(kept)
			if got := ix.Satisfied(kept, sc); got != want {
				t.Fatalf("Satisfied(kept) = %d, want %d", got, want)
			}
			var drop []int
			for _, a := range tuple.Ones() {
				if !kept.Get(a) {
					drop = append(drop, a)
				}
			}
			if got := ix.SatisfiedDropping(cand, drop, sc); got != want {
				t.Fatalf("SatisfiedDropping = %d, want %d", got, want)
			}
		}
	}
}

func TestEmptyLog(t *testing.T) {
	log := dataset.NewQueryLog(dataset.GenericSchema(5))
	ix, err := Build(log)
	if err != nil {
		t.Fatal(err)
	}
	tuple := bitvec.FromIndices(5, 0, 2)
	if got := ix.Satisfied(tuple, nil); got != 0 {
		t.Fatalf("Satisfied on empty log = %d", got)
	}
	if got := ix.CandidateSet(tuple).Count(); got != 0 {
		t.Fatalf("CandidateSet on empty log = %d", got)
	}
	if ix.maxSize != 0 {
		t.Fatalf("max query size = %d", ix.maxSize)
	}
}

func TestSizeBuckets(t *testing.T) {
	log := dataset.NewQueryLog(dataset.GenericSchema(6))
	for _, spec := range [][]int{{0}, {1, 2}, {3, 4, 5}, {0, 1, 2, 3}} {
		if err := log.Append(bitvec.FromIndices(6, spec...)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Build(log)
	if err != nil {
		t.Fatal(err)
	}
	// The bucket a k-attribute vector starts from holds the queries of at
	// most k attributes, clamped at the largest query.
	for k, want := range []int{0, 1, 2, 3, 4, 4, 4} {
		v := bitvec.New(6)
		for a := 0; a < k; a++ {
			v.Set(a)
		}
		if got := ix.bucket(v).set.Count(); got != want {
			t.Fatalf("bucket(|v|=%d) = %d queries, want %d", k, got, want)
		}
	}
	if ix.maxSize != 4 {
		t.Fatalf("max query size = %d, want 4", ix.maxSize)
	}
}

func TestStale(t *testing.T) {
	log := dataset.NewQueryLog(dataset.GenericSchema(4))
	if err := log.Append(bitvec.FromIndices(4, 0)); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildSegmented(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stale() {
		t.Fatal("fresh index reported stale")
	}
	if err := log.Append(bitvec.FromIndices(4, 1)); err != nil {
		t.Fatal(err)
	}
	if !ix.Stale() {
		t.Fatal("index not stale after Append")
	}

	ix2, err := BuildSegmented(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Queries[0].Set(3) // in-place mutation, announced via Touch
	log.Touch()
	if !ix2.Stale() {
		t.Fatal("index not stale after Touch")
	}
}

func TestBuildRejectsInvalidLog(t *testing.T) {
	log := dataset.NewQueryLog(dataset.GenericSchema(4))
	log.Queries = append(log.Queries, bitvec.New(9)) // wrong width, bypassing Append
	if _, err := Build(log); err == nil {
		t.Fatal("Build accepted an invalid log")
	}
}

func TestPanicsOnWidthMismatch(t *testing.T) {
	log := randomLog(t, rand.New(rand.NewSource(1)), 8, 10, 3)
	ix, err := Build(log)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"CandidateSet": func() { ix.CandidateSet(bitvec.New(9)) },
		"Satisfied":    func() { ix.Satisfied(bitvec.New(7), nil) },
		"Containing":   func() { ix.Containing(bitvec.New(9), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on mismatch", name)
				}
			}()
			fn()
		}()
	}
}
