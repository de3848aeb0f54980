package index

import (
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// segRandLog builds a log of nq random queries over width attributes.
func segRandLog(r *rand.Rand, width, nq int) *dataset.QueryLog {
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < nq; i++ {
		v := bitvec.New(width)
		for j := 0; j < width; j++ {
			if r.Intn(3) == 0 {
				v.Set(j)
			}
		}
		if err := log.Append(v); err != nil {
			panic(err)
		}
	}
	return log
}

func segRandVec(r *rand.Rand, width int) bitvec.Vector {
	v := bitvec.New(width)
	for j := 0; j < width; j++ {
		if r.Intn(2) == 0 {
			v.Set(j)
		}
	}
	return v
}

// segSatisfied sums Satisfied over the segments, as core counts a prep.
func segSatisfied(s *Segmented, v bitvec.Vector) int {
	total := 0
	for i := 0; i < s.Segments(); i++ {
		total += s.Segment(i).Satisfied(v, nil)
	}
	return total
}

func TestSegmentedSingleSegmentMatchesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	log := segRandLog(r, 12, 300)
	seg, err := BuildSegmented(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Segments() != 1 || seg.NumQueries() != 300 {
		t.Fatalf("segments=%d nq=%d", seg.Segments(), seg.NumQueries())
	}
	if seg.Fingerprint() != log.Fingerprint() {
		t.Fatalf("rolling fingerprint %x != log fingerprint %x", seg.Fingerprint(), log.Fingerprint())
	}
	for i := 0; i < 50; i++ {
		v := segRandVec(r, 12)
		if got, want := segSatisfied(seg, v), log.Satisfied(v); got != want {
			t.Fatalf("Satisfied(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestSegmentedExtendScoresExactly(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
		log := segRandLog(r, 10, 40)
		seg, err := BuildSegmented(log, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// Three append rounds without compaction: four segments.
		for round := 0; round < 3; round++ {
			for i := 0; i < 10+round; i++ {
				if err := log.Append(segRandVec(r, 10)); err != nil {
					t.Fatal(err)
				}
			}
			seg, err = seg.Extend(log)
			if err != nil {
				t.Fatal(err)
			}
		}
		if seg.Segments() != 4 {
			t.Fatalf("mode %v: segments = %d, want 4", mode, seg.Segments())
		}
		if seg.Stale() {
			t.Fatal("freshly extended segmented index reports stale")
		}
		if seg.Fingerprint() != log.Fingerprint() {
			t.Fatalf("mode %v: rolling fingerprint diverged", mode)
		}
		for i := 0; i < 40; i++ {
			v := segRandVec(r, 10)
			if got, want := segSatisfied(seg, v), log.Satisfied(v); got != want {
				t.Fatalf("mode %v: Satisfied = %d, want %d", mode, got, want)
			}
		}
		// Aggregated frequencies match the log's.
		want := log.AttrFrequencies()
		for a, f := range seg.AttrFrequencies() {
			if f != want[a] {
				t.Fatalf("mode %v: freq[%d] = %d, want %d", mode, a, f, want[a])
			}
		}
	}
}

func TestSegmentedCompactTiered(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	log := segRandLog(r, 8, 64)
	seg, err := BuildSegmented(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unit appends with tiered compaction after each: binary-counter merge
	// schedule keeps the segment count logarithmic.
	for i := 0; i < 64; i++ {
		if err := log.Append(segRandVec(r, 8)); err != nil {
			t.Fatal(err)
		}
		seg, err = seg.Extend(log)
		if err != nil {
			t.Fatal(err)
		}
		seg, _, err = seg.CompactTiered()
		if err != nil {
			t.Fatal(err)
		}
		// Invariant: sizes strictly decreasing.
		for si := 1; si < seg.Segments(); si++ {
			prev := seg.Segment(si - 1).NumQueries()
			cur := seg.Segment(si).NumQueries()
			if prev <= cur {
				t.Fatalf("after append %d: segment sizes not decreasing (%d then %d)", i, prev, cur)
			}
		}
		if seg.Segments() > 9 { // 128 queries → ≤ ⌈log2⌉+2 segments
			t.Fatalf("after append %d: %d segments, tiering not bounding", i, seg.Segments())
		}
	}
	if got, want := seg.NumQueries(), 128; got != want {
		t.Fatalf("nq = %d, want %d", got, want)
	}
	for i := 0; i < 40; i++ {
		v := segRandVec(r, 8)
		if got, want := segSatisfied(seg, v), log.Satisfied(v); got != want {
			t.Fatalf("Satisfied = %d, want %d", got, want)
		}
	}
	// Full compaction collapses to one segment, still exact.
	seg, err = seg.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if seg.Segments() != 1 {
		t.Fatalf("Compact left %d segments", seg.Segments())
	}
	if seg.Fingerprint() != log.Fingerprint() {
		t.Fatal("fingerprint diverged after full compaction")
	}
}

func TestSegmentedImmutableGenerations(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	log := segRandLog(r, 8, 30)
	gen0, err := BuildSegmented(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := segRandVec(r, 8)
	before := segSatisfied(gen0, v)

	// Copy-on-write extension: the old generation keeps scoring its snapshot.
	next := log.Extend()
	for i := 0; i < 20; i++ {
		if err := next.Append(segRandVec(r, 8)); err != nil {
			t.Fatal(err)
		}
	}
	gen1, err := gen0.Extend(next)
	if err != nil {
		t.Fatal(err)
	}
	if got := segSatisfied(gen0, v); got != before {
		t.Fatalf("old generation changed: %d → %d", before, got)
	}
	if gen0.Segments() != 1 || gen1.Segments() != 2 {
		t.Fatalf("segments: gen0 %d gen1 %d", gen0.Segments(), gen1.Segments())
	}
	if got, want := segSatisfied(gen1, v), next.Satisfied(v); got != want {
		t.Fatalf("new generation Satisfied = %d, want %d", got, want)
	}
	if !next.ExtendsFrom(log, gen0.Version(), gen0.NumQueries()) {
		t.Fatal("lineage proof failed for a straightforward Extend")
	}
	// A Touch on the new generation voids delta-extension certificates.
	next.Touch()
	if next.ExtendsFrom(log, gen0.Version(), gen0.NumQueries()) {
		t.Fatal("lineage proof survived a Touch")
	}
}

func TestSegmentedWeighted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	log := dataset.NewQueryLog(dataset.GenericSchema(8))
	for i := 0; i < 50; i++ {
		if err := log.AppendWeighted(segRandVec(r, 8), 1+r.Intn(5)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := BuildSegmented(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := log.AppendWeighted(segRandVec(r, 8), 1+r.Intn(5)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err = seg.Extend(log)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seg.TotalWeight(), log.TotalWeight(); got != want {
		t.Fatalf("TotalWeight = %d, want %d", got, want)
	}
	for i := 0; i < 40; i++ {
		v := segRandVec(r, 8)
		if got, want := segSatisfied(seg, v), log.Satisfied(v); got != want {
			t.Fatalf("weighted Satisfied = %d, want %d", got, want)
		}
	}
}
