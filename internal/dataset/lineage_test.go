package dataset

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"standout/internal/bitvec"
)

// lineageEntry is one query of a log with its weight.
type lineageEntry struct {
	q bitvec.Vector
	w int
}

func entriesOf(g *QueryLog) []lineageEntry {
	out := make([]lineageEntry, g.Size())
	for i := range out {
		out[i] = lineageEntry{g.Queries[i], g.Weight(i)}
	}
	return out
}

func sameEntries(a, b []lineageEntry) bool {
	return slices.EqualFunc(a, b, func(x, y lineageEntry) bool { return x.w == y.w && x.q.Equal(y.q) })
}

// lineageSnap is a (version, size) snapshot of generation gen, with the
// entries it had then.
type lineageSnap struct {
	gen     int
	version uint64
	entries []lineageEntry
}

// FuzzLineage drives random Extend, Append, AppendWeighted, Touch and
// announced in-place edits on random generations of one root log, and holds
// ExtendsFrom to two oracles over every (generation, snapshot) pair:
//
//   - soundness: when it holds, the generation's first n entries and
//     weights are the snapshot's;
//   - completeness: it holds whenever the generation descends from the
//     snapshot through Extend and Append alone, branches included, with no
//     Touch in the lineage since.
//
// Apart from announced edits, every generation must keep reading exactly
// the entries it was given, and a generation's slices have no spare
// capacity a direct append could overwrite. An append to one generation
// leaves every other's Version alone; a Touch moves them all.
func FuzzLineage(f *testing.F) {
	f.Add(int64(1), []byte{5, 0, 1, 1, 0, 1, 2, 5, 0, 1, 1, 1})
	f.Add(int64(2), []byte{0, 0, 1, 1, 5, 1, 1, 2, 0, 1})    // equal-length siblings
	f.Add(int64(3), []byte{0, 5, 3, 0, 1, 5, 0, 1, 1, 1})    // a Touch between snapshots
	f.Add(int64(4), []byte{0, 1, 5, 4, 5, 0, 1, 0, 2, 1, 1}) // an edit, then appends
	f.Add(int64(5), []byte{2, 5, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2})
	f.Add(int64(6), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := rand.New(rand.NewSource(seed))
		const width = 5
		query := func() bitvec.Vector {
			v := bitvec.New(width)
			for i := 0; i < width; i++ {
				if r.Intn(3) == 0 {
					v.Set(i)
				}
			}
			return v
		}
		root := NewQueryLog(GenericSchema(width))
		for i := r.Intn(4); i > 0; i-- {
			if err := root.Append(query()); err != nil {
				t.Fatal(err)
			}
		}
		gens := []*QueryLog{root}
		want := [][]lineageEntry{entriesOf(root)}
		var snaps []lineageSnap
		// descends[g] holds the snapshots generation g descends from with
		// no Touch since.
		descends := []map[int]bool{{}}
		versions := func() []uint64 {
			out := make([]uint64, len(gens))
			for i, g := range gens {
				out[i] = g.Version()
			}
			return out
		}
		check := func(q, s int) {
			g, sn := gens[q], snaps[s]
			n := len(sn.entries)
			ok := g.ExtendsFrom(gens[sn.gen], sn.version, n)
			if ok && !sameEntries(entriesOf(g)[:n], sn.entries) {
				t.Fatalf("generation %d ExtendsFrom snapshot %d of generation %d, but its first %d entries differ", q, s, sn.gen, n)
			}
			if !ok && descends[q][s] {
				t.Fatalf("generation %d descends from snapshot %d of generation %d, but ExtendsFrom is false", q, s, sn.gen)
			}
		}
		// checkGen re-checks every pair that generation g's last change can
		// have moved: g as the descendant and g as the snapshot's source.
		checkGen := func(g int) {
			got := gens[g]
			if !sameEntries(entriesOf(got), want[g]) {
				t.Fatalf("generation %d no longer reads the entries it was given", g)
			}
			if g != 0 && (cap(got.Queries) != got.Size() || (got.Weights != nil && cap(got.Weights) != got.Size())) {
				t.Fatalf("generation %d has spare capacity (%d queries, caps %d and %d)",
					g, got.Size(), cap(got.Queries), cap(got.Weights))
			}
			for s, sn := range snaps {
				check(g, s)
				if sn.gen == g {
					for q := range gens {
						check(q, s)
					}
				}
			}
		}
		for _, op := range ops {
			g := r.Intn(len(gens))
			switch op % 7 {
			case 0:
				gens = append(gens, gens[g].Extend())
				want = append(want, slices.Clone(want[g]))
				descends = append(descends, maps.Clone(descends[g]))
				checkGen(len(gens) - 1)
			case 1, 2:
				w := 1
				if op%7 == 2 {
					w = 1 + r.Intn(4)
				}
				before := versions()
				v := query()
				if err := gens[g].AppendWeighted(v, w); err != nil {
					t.Fatal(err)
				}
				want[g] = append(want[g], lineageEntry{v, w})
				for i, after := range versions() {
					if i != g && after != before[i] {
						t.Fatalf("an append to generation %d moved generation %d's version", g, i)
					}
				}
				checkGen(g)
			case 3, 4:
				if op%7 == 4 && gens[g].Size() > 0 {
					gens[g].Queries[r.Intn(gens[g].Size())] = query()
				}
				before := versions()
				gens[g].Touch()
				for i, after := range versions() {
					if after == before[i] {
						t.Fatalf("a Touch of generation %d left generation %d's version at %d", g, i, after)
					}
				}
				// The edit may show in every generation sharing the store.
				for i := range gens {
					want[i] = entriesOf(gens[i])
					clear(descends[i])
				}
			case 5, 6:
				snaps = append(snaps, lineageSnap{g, gens[g].Version(), entriesOf(gens[g])})
				descends[g][len(snaps)-1] = true
				checkGen(g)
			}
		}
		for q := range gens {
			checkGen(q)
		}
	})
}

// TestLineageConcurrentAppends: generations of one store appended to from
// many goroutines at once — equal-length siblings racing for the in-place
// slot, readers of older generations, Extend, Touch and Version beside
// them — each keep exactly their own entries, and every descendant still
// proves its lineage.
func TestLineageConcurrentAppends(t *testing.T) {
	const width, workers, rounds = 8, 6, 40
	root := NewQueryLog(GenericSchema(width))
	for i := 0; i < 50; i++ {
		if err := root.AppendWeighted(bitvec.FromIndices(width, i%width), 1+i%3); err != nil {
			t.Fatal(err)
		}
	}
	base := root.Extend()
	baseVersion, baseEntries := base.Version(), entriesOf(base)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := base.Extend()
			var mine []lineageEntry
			for i := 0; i < rounds; i++ {
				e := lineageEntry{bitvec.FromIndices(width, w, (w+i)%width), 1 + (w+i)%2}
				if err := g.AppendWeighted(e.q, e.w); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, e)
				if i%8 == 0 {
					g = g.Extend()
				}
				if !sameEntries(entriesOf(base), baseEntries) {
					t.Errorf("worker %d: the shared base generation changed", w)
					return
				}
				_ = g.Version()
			}
			if !sameEntries(entriesOf(g), append(slices.Clone(baseEntries), mine...)) {
				t.Errorf("worker %d: its generation does not read its own appends", w)
			}
			if !g.ExtendsFrom(base, baseVersion, len(baseEntries)) {
				t.Errorf("worker %d: its generation does not prove it extends the base", w)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_ = root.Version()
			_ = base.Extend().Version()
		}
	}()
	wg.Wait()
	base.Touch()
	if base.Extend().ExtendsFrom(base, baseVersion, len(baseEntries)) {
		t.Fatal("a lineage proof survived a Touch")
	}
}

// TestExtendsFromAllocsNothing pins the lineage proof to zero allocations:
// on a one-append generation of a root, and on a branch that had to copy its
// parent's store, so its proof runs through the store's copied spans.
func TestExtendsFromAllocsNothing(t *testing.T) {
	const width = 8
	root := NewQueryLog(GenericSchema(width))
	for i := 0; i < 50; i++ {
		if err := root.Append(bitvec.FromIndices(width, i%width)); err != nil {
			t.Fatal(err)
		}
	}
	one := root.Extend()
	if err := one.Append(bitvec.FromIndices(width, 1)); err != nil {
		t.Fatal(err)
	}
	sibling, branch := one.Extend(), one.Extend()
	for _, g := range []*QueryLog{sibling, branch} { // the branch's append copies
		if err := g.Append(bitvec.FromIndices(width, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name        string
		g, ancestor *QueryLog
		version     uint64
		size        int
	}{
		{"one append", one, root, root.Version(), root.Size()},
		{"two generations", branch, root, root.Version(), root.Size()},
		{"copied branch", branch, one, one.Version(), one.Size()},
	} {
		if !c.g.ExtendsFrom(c.ancestor, c.version, c.size) {
			t.Fatalf("%s: no proof", c.name)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.g.ExtendsFrom(c.ancestor, c.version, c.size) }); allocs != 0 {
			t.Fatalf("%s: ExtendsFrom allocates %.0f times, want 0", c.name, allocs)
		}
	}
}
