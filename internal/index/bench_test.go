package index

// Benchmarks of the solvers' two hot kernels on the layouts Auto picks: a
// dense log, where every column stays a bitmap, and a wide sparse log, where
// the cold columns are compressed. Run with
//
//	go test -run '^$' -bench 'CandidateSet|SatisfiedDropping' -benchmem ./internal/index

import (
	"math/rand"
	"testing"

	"standout/internal/bitvec"
)

// benchLayout is one index with the tuple the kernels run for: the first 24
// attributes of its schema.
type benchLayout struct {
	name  string
	ix    *Index
	tuple bitvec.Vector
}

// benchLayouts builds the two layouts and checks that Auto chose what each is
// named for.
func benchLayouts(b *testing.B) []benchLayout {
	b.Helper()
	dense, err := Build(randomLog(b, rand.New(rand.NewSource(5)), 32, 4096, 6))
	if err != nil {
		b.Fatal(err)
	}
	sparse, err := Build(sparseLog(200, 4096, 13))
	if err != nil {
		b.Fatal(err)
	}
	if compressedCols(dense) != 0 || compressedCols(sparse) == 0 {
		b.Fatal("Auto did not keep the dense log's columns dense and compress the sparse log's cold ones")
	}
	first24 := make([]int, 24)
	for a := range first24 {
		first24[a] = a
	}
	return []benchLayout{
		{name: "dense", ix: dense, tuple: bitvec.FromIndices(32, first24...)},
		{name: "sparse", ix: sparse, tuple: bitvec.FromIndices(200, first24...)},
	}
}

func compressedCols(ix *Index) int {
	n := 0
	for _, c := range ix.cols {
		if c.comp != nil {
			n++
		}
	}
	return n
}

// BenchmarkCandidateSet times building a tuple's candidate set: the queries
// of at most |t| attributes, minus every column t lacks.
func BenchmarkCandidateSet(b *testing.B) {
	for _, l := range benchLayouts(b) {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = l.ix.CandidateSet(l.tuple)
			}
		})
	}
}

// BenchmarkSatisfiedDropping times scoring one compression of the tuple from
// its candidate set with a warm scratch, which allocates nothing. The dropped
// attributes mix hot and cold ones, so on the sparse layout a dense working
// set is peeled by compressed columns too.
func BenchmarkSatisfiedDropping(b *testing.B) {
	drop := []int{1, 3, 17, 18, 19}
	for _, l := range benchLayouts(b) {
		b.Run(l.name, func(b *testing.B) {
			cand := l.ix.CandidateSet(l.tuple)
			sc := l.ix.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCount += l.ix.SatisfiedDropping(cand, drop, sc)
			}
		})
	}
}

var (
	benchSink  bitvec.Bits
	benchCount int
)
