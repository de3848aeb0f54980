package main

import (
	"fmt"
	"math/rand"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/gen"
)

// spec fixes one workload's shape. Sizes are per run; quick mode (the
// benchmark's own tests) shrinks them so a whole run takes well under a
// second.
type spec struct {
	name string
	// rawQueries is the generated log size before compaction; compacted
	// workloads fold it with compact.Compact during set-up.
	rawQueries int
	compacted  bool
	shards     int // 0: one serve node; n > 0: n serve shards behind a coordinator
	// freshRounds starts every measured round on a new server over the
	// start-up log, so the log each round grows is the same size.
	freshRounds bool
	// warmOps run before each round's measured ops and are not measured.
	warmOps  int
	roundOps int
	// maxRounds caps the rounds of one measured phase; the op sequence is
	// generated long enough for it.
	maxRounds int
	// setups batches of setupBatch fresh start-ups are timed per run, one
	// batch after each measured round; setup_s is their median.
	setups, setupBatch int
	// setupOneProc times the start-ups on one processor (GOMAXPROCS 1). On
	// a 2-vCPU virtual machine, a goroutine handed to an idle CPU waits
	// about 1 ms for it to wake, and how often that happens drifts over
	// seconds. Solve-read's start-up is about 0.5 ms of work, so on two
	// processors single start-ups read 0.4 to 8 ms; on one, no step waits
	// for another CPU and the time is the start-up's work. That work then
	// includes the estimator warm that the first index build starts in the
	// background, which runs before the next readiness reply. The
	// compacted workloads' 2 s start-ups were steadier on two processors,
	// where the collector runs beside the compaction (eight alternating
	// start-ups: 1.87-2.15 s on two, 1.68-2.52 s on one).
	setupOneProc bool
	// minSolves and minAppends are the smallest measured sample counts the
	// reported p99 values need (ten samples beyond p99).
	minSolves, minAppends int
}

const (
	clients     = 2    // closed-loop clients
	appendBatch = 8    // queries per POST /log
	carsRows    = 2000 // Cars table behind every log (the schema is what matters)
	logSeed     = 1000 // the start-up logs and the hot set derive from it
)

var workloads = []spec{
	{name: "solve-read", maxRounds: 48, rawQueries: 2000, warmOps: 400, roundOps: 1500, setups: 7, setupBatch: 8, setupOneProc: true, minSolves: 1000},
	{name: "ingest-mixed", maxRounds: 64, rawQueries: 200000, compacted: true, freshRounds: true, warmOps: 16, roundOps: 256, setups: 3, setupBatch: 1, minSolves: 1000, minAppends: 1000},
	{name: "shard-fanout", maxRounds: 48, rawQueries: 200000, compacted: true, shards: 4, warmOps: 100, roundOps: 600, setups: 3, setupBatch: 1, minSolves: 1000},
}

func specFor(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// quick shrinks a spec for the benchmark's own tests.
func (w spec) quick() spec {
	w.rawQueries = w.rawQueries / 100
	if w.rawQueries < 500 {
		w.rawQueries = 500
	}
	w.warmOps, w.roundOps, w.setups, w.setupBatch, w.maxRounds = 16, 64, 1, 1, 2
	w.minSolves, w.minAppends = 0, 0
	return w
}

type opKind uint8

const (
	opSolve opKind = iota
	opAppend
)

// op is one client operation: a solve of tuples[tuple] with (m, algo), or
// the POST /log of append chunk number chunk.
type op struct {
	kind  opKind
	tuple int
	m     int
	algo  string
	chunk int
}

// key identifies a solve for the repeat-share diagnostic and the answer
// check's memo of direct solves.
type key struct {
	tuple int
	m     int
	algo  string
}

func (o op) key() key { return key{o.tuple, o.m, o.algo} }

// inputs are a run's generated inputs. The program under test sees only
// these values.
type inputs struct {
	raw     *dataset.QueryLog // the log before compaction (the log itself when not compacted)
	tuples  []bitvec.Vector
	appends [][]bitvec.Vector // ingest-mixed: appendBatch queries per chunk
	seq     []op
}

// makeInputs generates the workload's log, tuples and an operation sequence
// long enough for n ops. The same (seed, n) always gives the same inputs.
//
// Each workload's start-up log is fixed, and so is ingest-mixed's hot set;
// the seed draws the operation sequence, the solve-read and shard-fanout
// tuple pools and the appended queries. Visibility and solve cost hang on
// the log and on the few hottest tuples: with a seed-drawn 2,000-query log
// or hot set, they moved by 10-50% between seeds.
func makeInputs(w spec, seed int64, n int) *inputs {
	tab := gen.Cars(logSeed, carsRows)
	in := &inputs{raw: gen.RealWorkload(tab, logSeed+1, w.rawQueries)}
	rng := rand.New(rand.NewSource(seed + 2))
	switch w.name {
	case "solve-read":
		in.tuples = distinct(gen.Cars(seed+3, gen.CarsSize).Rows)
		in.seq = solveReadSeq(rng, in.tuples, n)
	case "ingest-mixed":
		in.tuples = gen.PickTuples(gen.Cars(logSeed+3, carsRows), logSeed+3, 64)
		in.seq = ingestSeq(rng, len(in.tuples), n)
		chunks := 0
		for _, o := range in.seq {
			if o.kind == opAppend {
				chunks++
			}
		}
		fresh := gen.RealWorkload(tab, seed+4, chunks*appendBatch)
		for c := 0; c < chunks; c++ {
			in.appends = append(in.appends, fresh.Queries[c*appendBatch:(c+1)*appendBatch])
		}
	case "shard-fanout":
		in.tuples = distinct(gen.Cars(seed+3, gen.CarsSize).Rows)
		in.seq = shardSeq(rng, len(in.tuples), n)
	}
	return in
}

// distinct drops repeated rows, so a key repeats only where the sequence
// repeats it.
func distinct(rows []bitvec.Vector) []bitvec.Vector {
	seen := map[string]bool{}
	var out []bitvec.Vector
	for _, r := range rows {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// repeatShare and repeatWindow set solve-read's key reuse: about one solve
// in twenty repeats a key from the last repeatWindow operations, a working
// set several times the 1,024-entry solution memo. Every other solve takes
// a key not used before: each (algo, m) pair walks its own permutation of
// the distinct tuples.
//
// mfiMaxAttrs keeps mfi-exact to tuples of at most 24 attributes. Exact MFI
// mining at m 3 grows about 1.5x per attribute on this log (17 ms median at
// 25 attributes, 390 ms at 30, up to 1.1 s through the server), and an
// instance near the 2 s deadline would be degraded on a slow run and not on
// the next.
const (
	repeatShare  = 0.05
	repeatWindow = 7500
	mfiMaxAttrs  = 24
)

func solveReadSeq(rng *rand.Rand, tuples []bitvec.Vector, n int) []op {
	all := make([]int, len(tuples))
	var small []int
	for i, t := range tuples {
		all[i] = i
		if t.Count() <= mfiMaxAttrs {
			small = append(small, i)
		}
	}
	fresh := freshTuples(rng)
	seq := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < repeatShare {
			lo := max(0, i-repeatWindow)
			seq = append(seq, seq[lo+rng.Intn(i-lo)])
			continue
		}
		o := op{kind: opSolve}
		pool := all
		switch r := rng.Float64(); {
		case r < 0.45:
			o.algo, o.m = "greedy", 3+rng.Intn(4)
		case r < 0.60:
			o.algo, o.m = "consumeattr", 3+rng.Intn(4)
		case r < 0.70:
			o.algo, o.m = "estimate", 3+rng.Intn(4)
		case r < 0.85:
			o.algo, o.m = "brute", 3+rng.Intn(2)
		default:
			o.algo, o.m, pool = "mfi-exact", 3, small
		}
		o.tuple = fresh(o.algo, o.m, pool)
		seq = append(seq, o)
	}
	return seq
}

// freshTuples returns a function giving, per (algo, m), the tuples of a
// seeded permutation of pool in turn, starting over when it runs out. Each
// (algo, m) pair always passes the same pool.
func freshTuples(rng *rand.Rand) func(algo string, m int, pool []int) int {
	type combo struct {
		algo string
		m    int
	}
	perms := map[combo][]int{}
	next := map[combo]int{}
	return func(algo string, m int, pool []int) int {
		c := combo{algo, m}
		if perms[c] == nil {
			perms[c] = rng.Perm(len(pool))
		}
		t := pool[perms[c][next[c]%len(pool)]]
		next[c]++
		return t
	}
}

// hotZipf and consumeAttrOne shape ingest-mixed's solves. Neither is
// measured from real seller traffic: the exponent is the one the
// repository's generators use for popularity in real keyword logs
// (gen.TextVocabulary), and the 3:1 greedy:consumeattr split is
// solve-read's (45% : 15%).
const (
	hotZipf        = 1.1
	consumeAttrOne = 4 // one solve in consumeAttrOne uses consumeattr
)

// ingestSeq makes every eighth operation an append; the rest solve a
// Zipf-skewed hot set with a greedy solver.
func ingestSeq(rng *rand.Rand, nTuples, n int) []op {
	zipf := rand.NewZipf(rng, hotZipf, 1, uint64(nTuples-1))
	seq := make([]op, 0, n)
	chunk := 0
	for i := 0; i < n; i++ {
		if i%8 == 7 {
			seq = append(seq, op{kind: opAppend, chunk: chunk})
			chunk++
			continue
		}
		o := op{kind: opSolve, tuple: int(zipf.Uint64()), m: 3 + rng.Intn(3), algo: "greedy"}
		if rng.Intn(consumeAttrOne) == 0 {
			o.algo = "consumeattr"
		}
		seq = append(seq, o)
	}
	return seq
}

func shardSeq(rng *rand.Rand, nTuples, n int) []op {
	seq := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o := op{kind: opSolve, tuple: rng.Intn(nTuples)}
		switch r := rng.Float64(); {
		case r < 0.65:
			o.algo, o.m = "greedy", 3+rng.Intn(3)
		case r < 0.95:
			o.algo, o.m = "consumeattr", 3+rng.Intn(3)
		default:
			o.algo, o.m = "brute", 3
		}
		seq = append(seq, o)
	}
	return seq
}
