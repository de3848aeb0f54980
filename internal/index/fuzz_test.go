package index

import (
	"math/rand"
	"slices"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// FuzzSatisfiedDropping pits the word-parallel counting kernels against a
// naive per-query rescorer on fuzzer-shaped logs, weighted and unweighted.
// The kernels compute satisfied weights by AND-NOT peeling over the inverted
// index; the naive oracle walks the raw queries. Any divergence is a
// soundness bug in the index — the whole solver stack scores through it.
//
// Input layout: byte 0 picks the width (1..16), byte 1 the query count
// (0..40); each following byte pair forms one query's bit pattern, then two
// bytes shape the tuple and the kept subset. An optional last byte makes the
// log weighted when non-zero and derives each query's weight (1..7) from it.
func FuzzSatisfiedDropping(f *testing.F) {
	f.Add([]byte{6, 3, 0b11, 0, 0b101, 0, 0b10000, 0, 0b111111, 0b1011})
	f.Add([]byte{16, 2, 0xff, 0xff, 0x01, 0x80, 0xff, 0xff, 0x0f, 0x00})
	f.Add([]byte{1, 1, 1, 0, 1, 1})
	f.Add([]byte{9, 0, 0xaa, 0x01})
	f.Add([]byte{6, 4, 0b11, 0, 0b101, 0, 0b110, 0, 0b10, 0, 0b111111, 0b111, 0x5b})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width := 1 + int(data[0])%16
		nq := int(data[1]) % 41
		data = data[2:]

		pattern := func(b []byte) bitvec.Vector {
			v := bitvec.New(width)
			bits := uint16(0)
			if len(b) > 0 {
				bits = uint16(b[0])
			}
			if len(b) > 1 {
				bits |= uint16(b[1]) << 8
			}
			for i := 0; i < width; i++ {
				if bits&(1<<i) != 0 {
					v.Set(i)
				}
			}
			return v
		}

		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		for i := 0; i < nq && len(data) >= 2; i++ {
			q := pattern(data)
			data = data[2:]
			if q.Count() == 0 {
				q.Set(i % width) // empty queries are rejected by Build
			}
			log.Queries = append(log.Queries, q)
		}
		if len(data) < 2 {
			return
		}
		tuple := pattern(data[:1])
		kept := pattern(data[1:2]).And(tuple) // kept ⊆ tuple by construction
		if len(data) > 2 && data[2] != 0 {
			log.Weights = make([]int, log.Size())
			for i := range log.Weights {
				log.Weights[i] = 1 + (int(data[2])*(i+1))%7
			}
		}

		drop := tuple.AndNot(kept).Ones()

		// Every representation mode must agree with both oracles and with
		// each other — the compressed paths are exercised here even on tiny
		// logs because ForceCompressed overrides the density heuristic.
		for _, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
			ix, err := BuildWith(log, Options{Mode: mode})
			if err != nil {
				t.Fatalf("BuildWith(mode %d): %v", mode, err)
			}

			// CandidateSet holds exactly the queries inside the tuple.
			cs := ix.CandidateSet(tuple)
			if got, want := cs.Ones(), log.SatisfiedBy(tuple); !slices.Equal(got, want) {
				t.Fatalf("mode %d: CandidateSet = %v, queries inside the tuple = %v (tuple=%s)", mode, got, want, tuple)
			}
			sc := ix.NewScratch()
			got := ix.SatisfiedDropping(cs, drop, sc)

			// Oracle 1: walk the candidates and test each query against drop
			// directly.
			naive := 0
			for _, qi := range cs.Ones() {
				hits := false
				q := log.Queries[qi]
				for _, a := range drop {
					if q.Get(a) {
						hits = true
						break
					}
				}
				if !hits {
					naive += log.Weight(qi)
				}
			}
			if got != naive {
				t.Fatalf("mode %d: SatisfiedDropping = %d, naive rescorer = %d (width=%d, %d queries, tuple=%s, kept=%s)",
					mode, got, naive, width, len(log.Queries), tuple, kept)
			}

			// Oracle 2: with cand = CandidateSet(tuple) and kept ⊆ tuple,
			// dropping tuple\kept leaves exactly the queries contained in
			// kept — the definition the raw log computes.
			if want := log.Satisfied(kept); got != want {
				t.Fatalf("mode %d: SatisfiedDropping = %d, log.Satisfied(kept) = %d (tuple=%s, kept=%s)",
					mode, got, want, tuple, kept)
			}

			// Satisfied peels from the size bucket instead of the candidates
			// and must land on the same count, with or without a scratch.
			if s := ix.Satisfied(kept, sc); s != got {
				t.Fatalf("mode %d: Satisfied = %d, SatisfiedDropping = %d", mode, s, got)
			}
			if s := ix.Satisfied(kept, nil); s != got {
				t.Fatalf("mode %d: Satisfied(nil scratch) = %d, SatisfiedDropping = %d", mode, s, got)
			}
		}
	})
}

// FuzzSegmentMerge drives a Segmented index through a fuzzer-chosen schedule
// of weighted appends, tiered compactions, and full compactions, checking
// after every step that it scores bit-identically to the raw log and to a
// one-shot monolithic build, and that its rolling fingerprint tracks the
// log's. Any divergence means the delta/merge machinery is unsound — the
// serving layer's incremental rebuilds all ride on it.
//
// Input layout: byte 0 picks the width (1..12); each following op byte is
// interpreted by its low two bits — 0/1 append a query shaped by the next
// two bytes (weight = 1 + high bits of the op byte), 2 runs CompactTiered,
// 3 runs Compact.
func FuzzSegmentMerge(f *testing.F) {
	f.Add([]byte{6, 0, 0b11, 0, 1, 0b101, 0, 2, 0, 0b111, 0, 3})
	f.Add([]byte{12, 0, 0xff, 0x0f, 0xc1, 0xff, 0x0f, 2, 2, 3})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0, 1, 0, 2})
	f.Add([]byte{8, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		width := 1 + int(data[0])%12
		data = data[1:]

		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		seg, err := BuildSegmented(log, Options{})
		if err != nil {
			t.Fatalf("BuildSegmented(empty): %v", err)
		}

		probe := func(step int) {
			if seg.Fingerprint() != log.Fingerprint() {
				t.Fatalf("step %d: rolling fingerprint %x, log %x", step, seg.Fingerprint(), log.Fingerprint())
			}
			if seg.NumQueries() != log.Size() || seg.TotalWeight() != log.TotalWeight() {
				t.Fatalf("step %d: nq/weight %d/%d, log %d/%d",
					step, seg.NumQueries(), seg.TotalWeight(), log.Size(), log.TotalWeight())
			}
			oneShot, err := BuildSegmented(log, Options{})
			if err != nil {
				t.Fatalf("step %d: one-shot build: %v", step, err)
			}
			// Probe the full lattice on narrow schemas, a diagonal sweep on
			// wide ones.
			check := func(v bitvec.Vector) {
				want := log.Satisfied(v)
				if got := segSatisfied(seg, v); got != want {
					t.Fatalf("step %d: segmented Satisfied(%s) = %d, raw = %d (%d segments)",
						step, v, got, want, seg.Segments())
				}
				if got := segSatisfied(oneShot, v); got != want {
					t.Fatalf("step %d: one-shot Satisfied(%s) = %d, raw = %d", step, v, got, want)
				}
			}
			if width <= 8 {
				for mask := 0; mask < 1<<width; mask++ {
					v := bitvec.New(width)
					for j := 0; j < width; j++ {
						if mask&(1<<j) != 0 {
							v.Set(j)
						}
					}
					check(v)
				}
			} else {
				for lo := 0; lo < width; lo++ {
					v := bitvec.New(width)
					for j := lo; j < width; j += 2 {
						v.Set(j)
					}
					check(v)
				}
			}
		}

		for step := 0; len(data) > 0 && step < 64; step++ {
			op := data[0]
			data = data[1:]
			switch op & 3 {
			case 2:
				next, _, err := seg.CompactTiered()
				if err != nil {
					t.Fatalf("step %d: CompactTiered: %v", step, err)
				}
				seg = next
			case 3:
				next, err := seg.Compact()
				if err != nil {
					t.Fatalf("step %d: Compact: %v", step, err)
				}
				seg = next
			default:
				if len(data) < 2 {
					return
				}
				q := bitvec.New(width)
				bits := uint16(data[0]) | uint16(data[1])<<8
				data = data[2:]
				for i := 0; i < width; i++ {
					if bits&(1<<i) != 0 {
						q.Set(i)
					}
				}
				if q.Count() == 0 {
					q.Set(step % width)
				}
				w := 1 + int(op>>2)
				if err := log.AppendWeighted(q, w); err != nil {
					t.Fatalf("step %d: append: %v", step, err)
				}
				next, err := seg.Extend(log)
				if err != nil {
					t.Fatalf("step %d: Extend: %v", step, err)
				}
				seg = next
			}
			probe(step)
		}
	})
}

// FuzzContainingAgrees checks the superset kernel against a scan: for every
// probed set v, Containing summed over a fuzzer-chosen split of the log into
// segments equals the total weight of the queries q ⊇ v, in every
// representation mode, for weighted and unweighted logs. The sum is exact
// only because each query lives in exactly one segment — the property the
// sharded /score and the segmented greedy both rest on.
//
// Input layout: byte 0 picks the width (1..16), byte 1 the query count
// (0..40), byte 2 seeds the segment cuts and its low bit makes the log
// weighted; each following byte pair forms one query's bit pattern, whose
// bytes also derive its weight.
func FuzzContainingAgrees(f *testing.F) {
	f.Add([]byte{6, 4, 0, 0b11, 0, 0b101, 0, 0b111, 0, 0b110, 0})
	f.Add([]byte{16, 3, 7, 0xff, 0xff, 0x0f, 0x80, 0xf0, 0x0f})
	f.Add([]byte{9, 12, 0x55, 1, 0, 3, 0, 7, 0, 1, 1, 3, 1, 0x81, 0, 0xff, 1, 2, 0, 6, 0, 0x0e, 1, 1, 0})
	f.Add([]byte{3, 0, 1})
	// Segments of three or more 4-attribute queries keep a pair table and
	// shorter ones AND columns, so one split runs both paths; weighted and
	// unweighted, then on the wide-schema probes.
	full4 := []byte{3, 40, 1}
	for i := 0; i < 40; i++ {
		full4 = append(full4, 0x0f, byte(i))
	}
	f.Add(full4)
	full4[2] = 4
	f.Add(full4)
	f.Add([]byte{8, 9, 3, 0xff, 1, 0xff, 1, 0xfe, 1, 0x7f, 0, 0xff, 1, 0xf0, 1, 0xff, 1, 0x3f, 1, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		width := 1 + int(data[0])%16
		nq := int(data[1]) % 41
		weighted := data[2]&1 == 1
		rng := rand.New(rand.NewSource(int64(data[2])))
		data = data[3:]

		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		for i := 0; i < nq && len(data) >= 2; i++ {
			q := bitvec.New(width)
			bits := uint16(data[0]) | uint16(data[1])<<8
			for a := 0; a < width; a++ {
				if bits&(1<<a) != 0 {
					q.Set(a)
				}
			}
			if q.Count() == 0 {
				q.Set(i % width) // empty queries are rejected by Build
			}
			w := 1
			if weighted {
				w = 1 + int(data[0]^data[1])%5
			}
			data = data[2:]
			if err := log.AppendWeighted(q, w); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		// Cut the log between queries with probability 1/3 per boundary.
		cuts := []int{0}
		for i := 1; i < log.Size(); i++ {
			if rng.Intn(3) == 0 {
				cuts = append(cuts, i)
			}
		}
		cuts = append(cuts, log.Size())

		scan := func(v bitvec.Vector) int {
			n := 0
			for qi, q := range log.Queries {
				if v.SubsetOf(q) {
					n += log.Weight(qi)
				}
			}
			return n
		}
		// The full lattice on narrow schemas; every query and each query
		// minus one attribute (the superset calls a greedy round makes) on
		// wide ones.
		var probes []bitvec.Vector
		if width <= 8 {
			for mask := 0; mask < 1<<width; mask++ {
				v := bitvec.New(width)
				for a := 0; a < width; a++ {
					if mask&(1<<a) != 0 {
						v.Set(a)
					}
				}
				probes = append(probes, v)
			}
		} else {
			probes = append(probes, bitvec.New(width))
			for _, q := range log.Queries {
				probes = append(probes, q)
				for _, a := range q.Ones() {
					v := q.Clone()
					v.Clear(a)
					probes = append(probes, v)
				}
			}
		}

		for _, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
			segs := make([]*Index, len(cuts)-1)
			scratch := make([]*Scratch, len(segs))
			for s := range segs {
				ix, err := BuildWith(log.Window(cuts[s], cuts[s+1]), Options{Mode: mode})
				if err != nil {
					t.Fatalf("mode %d: BuildWith window [%d,%d): %v", mode, cuts[s], cuts[s+1], err)
				}
				segs[s], scratch[s] = ix, ix.NewScratch()
			}
			for _, v := range probes {
				got := 0
				for s, ix := range segs {
					got += ix.Containing(v, scratch[s])
				}
				if want := scan(v); got != want {
					t.Fatalf("mode %d: Containing(%s) over %d segments = %d, scan = %d (weighted %t, %d queries)",
						mode, v, len(segs), got, want, weighted, log.Size())
				}
			}
		}
	})
}

// FuzzContainingBatchAgrees holds the batch superset kernel to a scan: every
// count ContainingBatch adds, summed over a fuzzer-chosen split of the log
// into segments, equals the total weight of the queries holding the
// candidate, in every representation mode, for weighted and unweighted
// logs. A batch is a greedy round over a common part of 0–4 attributes —
// common ∪ {j} for every other j, the common part itself and two-extra
// candidates — with, when the fuzzer says so, unrelated random candidates
// mixed in, which shrink the part the whole batch shares. Each segment's
// scratch then counts a second, reversed batch, so no state carries over
// between calls wrongly.
//
// Input layout: as FuzzContainingAgrees, with one more byte after byte 2:
// its value mod 5 is the common part's size and its bit 3 mixes in the
// unrelated candidates.
func FuzzContainingBatchAgrees(f *testing.F) {
	f.Add([]byte{6, 4, 0, 3, 0b11, 0, 0b101, 0, 0b111, 0, 0b110, 0})
	f.Add([]byte{9, 12, 0x55, 0x0b, 1, 0, 3, 0, 7, 0, 1, 1, 3, 1, 0x81, 0, 0xff, 1, 2, 0, 6, 0, 0x0e, 1, 1, 0})
	full := []byte{7, 40, 1, 4} // 8 attributes, every query holds 5–8 of them
	for i := 0; i < 40; i++ {
		full = append(full, 0xf8|byte(i), 0)
	}
	f.Add(full)
	full[2], full[3] = 6, 0x0c // unweighted, a common triple, unrelated candidates
	f.Add(full)
	f.Add([]byte{15, 30, 3, 2, 0xff, 0xff, 0xf0, 0x0f, 0x3c, 0xc3, 0xff, 0x00, 0x00, 0xff, 0xaa, 0x55, 0x0f, 0x0f, 0xf0, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width := 1 + int(data[0])%16
		nq := int(data[1]) % 41
		weighted := data[2]&1 == 1
		rng := rand.New(rand.NewSource(int64(data[2])))
		k, mixed := min(int(data[3])%5, width), data[3]&8 != 0
		data = data[4:]

		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		for i := 0; i < nq && len(data) >= 2; i++ {
			q := bitvec.New(width)
			bits := uint16(data[0]) | uint16(data[1])<<8
			for a := 0; a < width; a++ {
				if bits&(1<<a) != 0 {
					q.Set(a)
				}
			}
			if q.Count() == 0 {
				q.Set(i % width) // empty queries are rejected by Build
			}
			w := 1
			if weighted {
				w = 1 + int(data[0]^data[1])%5
			}
			data = data[2:]
			if err := log.AppendWeighted(q, w); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		cuts := []int{0}
		for i := 1; i < log.Size(); i++ {
			if rng.Intn(3) == 0 {
				cuts = append(cuts, i)
			}
		}
		cuts = append(cuts, log.Size())

		common := bitvec.FromIndices(width, rng.Perm(width)[:k]...)
		batch := []bitvec.Vector{common}
		for j := 0; j < width; j++ {
			if !common.Get(j) {
				c := common.Clone()
				c.Set(j)
				batch = append(batch, c)
			}
		}
		for i := 0; i < 3; i++ {
			c := common.Clone()
			c.Set(rng.Intn(width))
			c.Set(rng.Intn(width))
			batch = append(batch, c)
		}
		if mixed {
			for i := 0; i < 3; i++ {
				c := bitvec.New(width)
				for a := 0; a < width; a++ {
					if rng.Intn(2) == 0 {
						c.Set(a)
					}
				}
				at := rng.Intn(len(batch) + 1)
				batch = slices.Insert(batch, at, c)
			}
		}
		reversed := slices.Clone(batch)
		slices.Reverse(reversed)
		reversed = reversed[:1+len(reversed)/2]

		scan := func(v bitvec.Vector) int {
			n := 0
			for qi, q := range log.Queries {
				if v.SubsetOf(q) {
					n += log.Weight(qi)
				}
			}
			return n
		}
		for _, mode := range []Mode{Auto, ForceDense, ForceCompressed} {
			got := make([]int, len(batch))
			again := make([]int, len(reversed))
			for s := 0; s+1 < len(cuts); s++ {
				ix, err := BuildWith(log.Window(cuts[s], cuts[s+1]), Options{Mode: mode})
				if err != nil {
					t.Fatalf("mode %d: BuildWith window [%d,%d): %v", mode, cuts[s], cuts[s+1], err)
				}
				sc := ix.NewScratch()
				ix.ContainingBatch(batch, got, sc)
				ix.ContainingBatch(reversed, again, sc)
			}
			for ci, v := range batch {
				if want := scan(v); got[ci] != want {
					t.Fatalf("mode %d: ContainingBatch cand %d %s over %d segments = %d, scan = %d (common %s, weighted %t, %d queries)",
						mode, ci, v, len(cuts)-1, got[ci], want, common, weighted, log.Size())
				}
			}
			for ci, v := range reversed {
				if want := scan(v); again[ci] != want {
					t.Fatalf("mode %d: reused scratch, cand %s = %d, scan = %d", mode, v, again[ci], want)
				}
			}
		}
	})
}
