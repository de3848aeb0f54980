package index_test

// Tests and a benchmark of BuildWith on the logs the repository benchmark
// serves: solve-read's 2,000 raw gen.RealWorkload queries over the Cars
// schema, and the compacted log — 200,000 raw queries folded into weighted
// entries by compact.Compact — behind ingest-mixed and shard-fanout. Run the
// benchmark with
//
//	go test -run '^$' -bench Build -benchmem -cpu 1 ./internal/index

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/compact"
	"standout/internal/dataset"
	"standout/internal/gen"
	"standout/internal/index"
	"standout/internal/shard"
)

var (
	servedOnce    sync.Once
	compactedLog  *dataset.QueryLog
	solveReadLog  *dataset.QueryLog
	appendedBatch *dataset.QueryLog
)

// servedLogs returns the compacted log, solve-read's log and one 8-query
// append of the kind ingest-mixed posts.
func servedLogs() (compacted, solveRead, batch *dataset.QueryLog) {
	servedOnce.Do(func() {
		tab := gen.Cars(1000, 2000)
		compactedLog, _ = compact.Compact(gen.RealWorkload(tab, 1001, 200000))
		solveReadLog = gen.RealWorkload(tab, 1001, 2000)
		appendedBatch = gen.RealWorkload(tab, 7, 8)
	})
	return compactedLog, solveReadLog, appendedBatch
}

// pairsIn returns Σ_q C(|q|, 2), the attribute pairs a log's queries hold.
func pairsIn(log *dataset.QueryLog) int {
	n := 0
	for _, q := range log.Queries {
		k := q.Count()
		n += k * (k - 1) / 2
	}
	return n
}

// TestPairTableSizeRule pins which segments keep a pair table: exactly those
// whose width² entries are no more than the attribute pairs that fill them.
// The compacted log, solve-read's log and every shard of the compacted log
// keep one; an 8-query delta segment and a wide sparse schema do not. The
// rule does not depend on the column representation.
func TestPairTableSizeRule(t *testing.T) {
	compacted, solveRead, batch := servedLogs()
	ctx := context.Background()
	parts, err := shard.Partition(ctx, compacted, 4)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := index.BuildSegmented(compacted, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := compacted.Extend()
	for _, q := range batch.Queries {
		if err := next.Append(q); err != nil {
			t.Fatal(err)
		}
	}
	if seg, err = seg.Extend(next); err != nil {
		t.Fatal(err)
	}
	if seg.Segments() != 2 {
		t.Fatalf("extended index has %d segments, want a base and a delta", seg.Segments())
	}
	const wide = 10000
	zipf := make([]float64, wide)
	for i := range zipf {
		zipf[i] = 1 / math.Pow(float64(i+1), 1.1)
	}
	wideLog := gen.SyntheticWorkload(dataset.GenericSchema(wide), 3, 2048, gen.WorkloadOptions{AttrWeights: zipf})

	type namedLog struct {
		name  string
		log   *dataset.QueryLog
		table bool
	}
	cases := []namedLog{
		{"compacted", compacted, true},
		{"solve-read", solveRead, true},
		{"delta of 8", next.Window(compacted.Size(), next.Size()), false},
		{"wide sparse", wideLog, false},
	}
	for i, p := range parts {
		cases = append(cases, namedLog{fmt.Sprintf("shard %d/4", i), p, true})
	}
	for _, c := range cases {
		w := c.log.Width()
		if rule := w*w <= pairsIn(c.log); rule != c.table {
			t.Fatalf("%s: width² %d vs %d pairs: the rule gives %t, the log was named for %t", c.name, w*w, pairsIn(c.log), rule, c.table)
		}
		want := 0
		if c.table {
			want = 8 * w * w
		}
		for _, mode := range []index.Mode{index.Auto, index.ForceDense, index.ForceCompressed} {
			ix, err := index.BuildWith(c.log, index.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.Mem().PairBytes; got != want {
				t.Fatalf("%s mode %d: pair table %d bytes, want %d", c.name, mode, got, want)
			}
		}
	}
	base, delta := seg.Segment(0).Mem().PairBytes, seg.Segment(1).Mem().PairBytes
	if base == 0 || delta != 0 {
		t.Fatalf("segmented: base table %d bytes, delta table %d bytes; want the base's only", base, delta)
	}
	if got := seg.Mem().PairBytes; got != base {
		t.Fatalf("Segmented.Mem counts %d table bytes, its segments %d", got, base)
	}
}

// triplesIn returns Σ_q C(|q|, 3), the attribute triples a log's queries
// hold.
func triplesIn(log *dataset.QueryLog) int {
	n := 0
	for _, q := range log.Queries {
		k := q.Count()
		n += k * (k - 1) * (k - 2) / 6
	}
	return n
}

// TestTripleTableSizeRule is TestPairTableSizeRule one level up: a segment
// keeps a triple table exactly when its C(width, 3) entries are no more than
// the attribute triples that fill it. The compacted log, solve-read's log
// and every shard of the compacted log keep one; an 8-query delta segment
// and a wide sparse schema do not. The table is packed, 8·C(width, 3) bytes,
// counted in Bytes beside the pair table and summed by Segmented.Mem.
func TestTripleTableSizeRule(t *testing.T) {
	compacted, solveRead, batch := servedLogs()
	parts, err := shard.Partition(context.Background(), compacted, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := compacted.Extend()
	for _, q := range batch.Queries {
		if err := next.Append(q); err != nil {
			t.Fatal(err)
		}
	}
	const wide = 10000
	zipf := make([]float64, wide)
	for i := range zipf {
		zipf[i] = 1 / math.Pow(float64(i+1), 1.1)
	}
	type namedLog struct {
		name  string
		log   *dataset.QueryLog
		table bool
	}
	cases := []namedLog{
		{"compacted", compacted, true},
		{"solve-read", solveRead, true},
		{"delta of 8", next.Window(compacted.Size(), next.Size()), false},
		{"wide sparse", gen.SyntheticWorkload(dataset.GenericSchema(wide), 3, 2048, gen.WorkloadOptions{AttrWeights: zipf}), false},
	}
	for i, p := range parts {
		cases = append(cases, namedLog{fmt.Sprintf("shard %d/4", i), p, true})
	}
	for _, c := range cases {
		w := c.log.Width()
		entries := w * (w - 1) * (w - 2) / 6
		if rule := entries <= triplesIn(c.log); rule != c.table {
			t.Fatalf("%s: C(width, 3) %d vs %d triples: the rule gives %t, the log was named for %t", c.name, entries, triplesIn(c.log), rule, c.table)
		}
		want := 0
		if c.table {
			want = 8 * entries
		}
		for _, mode := range []index.Mode{index.Auto, index.ForceDense, index.ForceCompressed} {
			ix, err := index.BuildWith(c.log, index.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			m := ix.Mem()
			if m.TripleBytes != want {
				t.Fatalf("%s mode %d: triple table %d bytes, want %d", c.name, mode, m.TripleBytes, want)
			}
			if m.Bytes < m.PairBytes+m.TripleBytes {
				t.Fatalf("%s mode %d: Bytes %d leaves out the tables (%d + %d)", c.name, mode, m.Bytes, m.PairBytes, m.TripleBytes)
			}
		}
	}
	seg, err := index.BuildSegmented(compacted, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seg, err = seg.Extend(next); err != nil {
		t.Fatal(err)
	}
	base, delta := seg.Segment(0).Mem().TripleBytes, seg.Segment(1).Mem().TripleBytes
	if seg.Segments() != 2 || base == 0 || delta != 0 {
		t.Fatalf("segmented: %d segments, base table %d bytes, delta table %d bytes; want a base with a table and a delta without", seg.Segments(), base, delta)
	}
	if got := seg.Mem().TripleBytes; got != base {
		t.Fatalf("Segmented.Mem counts %d triple-table bytes, its segments %d", got, base)
	}
}

// TestSupportTablesCapped pins the cap on both support tables: a log keeps
// one only while it has at most 2¹⁶ entries, the pair table up to width 256
// and the triple table up to width 74, however many pairs or triples its
// queries hold. Queries holding every attribute meet the fill rule at any
// width, so without the cap one such query at width 2,000 would make a
// build, or a Segmented.Extend whose delta holds it, allocate 10 GB of
// triples. The narrow cases come first, so a lost cap fails on a table of
// a few hundred kilobytes before the wide ones run.
func TestSupportTablesCapped(t *testing.T) {
	everyAttr := func(width int) bitvec.Vector {
		v := bitvec.New(width)
		for a := 0; a < width; a++ {
			v.Set(a)
		}
		return v
	}
	logOf := func(width, queries int) *dataset.QueryLog {
		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		for i := 0; i < queries; i++ {
			if err := log.Append(everyAttr(width)); err != nil {
				t.Fatal(err)
			}
		}
		return log
	}
	for _, c := range []struct {
		width, queries int
		pairs, triples bool
	}{
		{74, 1, false, true}, // C(74, 3) = 64,824 entries; 74² pairs exceed C(74, 2)
		{75, 1, false, false},
		{256, 3, true, false}, // 256² = 2¹⁶ entries
		{257, 3, false, false},
		{2000, 1, false, false},
		{2000, 3, false, false},
	} {
		for _, mode := range []index.Mode{index.Auto, index.ForceDense, index.ForceCompressed} {
			ix, err := index.BuildWith(logOf(c.width, c.queries), index.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if m := ix.Mem(); (m.PairBytes > 0) != c.pairs || (m.TripleBytes > 0) != c.triples {
				t.Fatalf("width %d, %d all-attribute queries, mode %d: pair table %d bytes, triple table %d bytes; want tables %t, %t",
					c.width, c.queries, mode, m.PairBytes, m.TripleBytes, c.pairs, c.triples)
			}
		}
	}

	base := dataset.NewQueryLog(dataset.GenericSchema(2000))
	for a := 0; a < 2000; a++ {
		if err := base.Append(bitvec.FromIndices(2000, a)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := index.BuildSegmented(base, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := base.Extend()
	if err := next.Append(everyAttr(2000)); err != nil {
		t.Fatal(err)
	}
	if seg, err = seg.Extend(next); err != nil {
		t.Fatal(err)
	}
	if m := seg.Mem(); seg.Segments() != 2 || m.PairBytes != 0 || m.TripleBytes != 0 {
		t.Fatalf("extended by one all-attribute query: %d segments, pair table %d bytes, triple table %d bytes; want a delta and no tables",
			seg.Segments(), m.PairBytes, m.TripleBytes)
	}
}

// TestBuildAllocsFlat pins the build's walk: it allocates per column and per
// size bucket, never per query, so ten times the queries cost exactly as
// many allocations. Both logs keep a pair table and compress their sparse
// size buckets, so those paths are inside the pin.
func TestBuildAllocsFlat(t *testing.T) {
	tab := gen.Cars(1000, 2000)
	var allocs [2]float64
	for i, nq := range []int{2000, 20000} {
		log := gen.RealWorkload(tab, 1001, nq)
		ix, err := index.Build(log)
		if err != nil {
			t.Fatal(err)
		}
		if m := ix.Mem(); m.PairBytes == 0 || m.CompressedBuckets == 0 {
			t.Fatalf("%d queries: pair table %d bytes, %d compressed buckets; the pin covers neither path",
				nq, m.PairBytes, m.CompressedBuckets)
		}
		allocs[i] = testing.AllocsPerRun(3, func() {
			if _, err := index.Build(log); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("Build allocates %.0f times over 2,000 queries and %.0f over 20,000; want equal", allocs[0], allocs[1])
	}
}

// BenchmarkBuild times one full build of each served log.
func BenchmarkBuild(b *testing.B) {
	compacted, solveRead, _ := servedLogs()
	for _, l := range []struct {
		name string
		log  *dataset.QueryLog
	}{{"compacted", compacted}, {"solve-read", solveRead}} {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := index.Build(l.log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
