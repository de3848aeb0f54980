package compact

import (
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

func logOf(t *testing.T, width int, specs ...string) *dataset.QueryLog {
	t.Helper()
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for _, s := range specs {
		v, err := bitvec.FromString(s)
		if err != nil {
			t.Fatalf("bad spec %q: %v", s, err)
		}
		if err := log.Append(v); err != nil {
			t.Fatalf("append %q: %v", s, err)
		}
	}
	return log
}

func TestCompactFoldsDuplicates(t *testing.T) {
	log := logOf(t, 4, "1100", "0011", "1100", "1100", "0011", "1000")
	out, st := Compact(log)
	if out.Size() != 3 {
		t.Fatalf("got %d distinct queries, want 3", out.Size())
	}
	if st.DuplicatesFolded != 3 {
		t.Fatalf("DuplicatesFolded = %d, want 3", st.DuplicatesFolded)
	}
	if st.InputWeight != 6 || st.OutputWeight != 6 {
		t.Fatalf("weight not preserved: in %d out %d", st.InputWeight, st.OutputWeight)
	}
	// First-occurrence order and folded weights.
	wantW := []int{3, 2, 1}
	for i, w := range wantW {
		if out.Weight(i) != w {
			t.Fatalf("weight[%d] = %d, want %d", i, out.Weight(i), w)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("compacted log invalid: %v", err)
	}
}

func TestCompactUnweightedStaysNil(t *testing.T) {
	log := logOf(t, 3, "100", "010", "001")
	out, st := Compact(log)
	if out.Weights != nil {
		t.Fatalf("all-distinct log should stay unweighted, got weights %v", out.Weights)
	}
	if st.DuplicatesFolded != 0 || st.Ratio() != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestCompactFoldsIncomingWeights(t *testing.T) {
	log := logOf(t, 3, "110")
	if err := log.AppendWeighted(mustVec(t, "110"), 4); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendWeighted(mustVec(t, "011"), 2); err != nil {
		t.Fatal(err)
	}
	out, st := Compact(log)
	if out.Size() != 2 || out.Weight(0) != 5 || out.Weight(1) != 2 {
		t.Fatalf("incoming weights not folded: size %d weights %v", out.Size(), out.Weights)
	}
	if st.InputWeight != 7 || st.OutputWeight != 7 {
		t.Fatalf("weight not preserved: %+v", st)
	}
}

func TestSubsumptionDetectedNotFolded(t *testing.T) {
	// Chain 1000 ⊂ 1100 ⊂ 1110 ⊂ 1111 plus an unrelated 0001.
	log := logOf(t, 4, "1000", "1100", "1110", "1111", "0001")
	out, _ := Compact(log)
	if out.Size() != 5 {
		t.Fatalf("subsumed queries must NOT fold: got %d queries, want 5", out.Size())
	}
}

func TestCompactEmptyAndAllDuplicates(t *testing.T) {
	empty := dataset.NewQueryLog(dataset.GenericSchema(3))
	out, st := Compact(empty)
	if out.Size() != 0 {
		t.Fatalf("empty log: %+v", st)
	}

	dup := logOf(t, 3, "101", "101", "101", "101")
	out, _ = Compact(dup)
	if out.Size() != 1 || out.Weight(0) != 4 {
		t.Fatalf("all-duplicate log: size %d weights %v", out.Size(), out.Weights)
	}
}

// TestCompactObjectiveExact is the package-local exactness check: the
// weighted Satisfied of the compacted log equals the raw count for every
// vector of the lattice, on random duplicate-heavy logs. The cross-solver
// differential suite lives in internal/core.
func TestCompactObjectiveExact(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		width := 3 + r.Intn(6) // ≤ 8 so the full lattice is enumerable
		log := dataset.NewQueryLog(dataset.GenericSchema(width))
		nq := r.Intn(30)
		for i := 0; i < nq; i++ {
			v := bitvec.New(width)
			for j := 0; j < width; j++ {
				if r.Intn(3) == 0 {
					v.Set(j)
				}
			}
			if err := log.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		out, st := Compact(log)
		if st.InputWeight != st.OutputWeight {
			t.Fatalf("trial %d: weight changed %d → %d", trial, st.InputWeight, st.OutputWeight)
		}
		for mask := 0; mask < 1<<width; mask++ {
			v := bitvec.New(width)
			for j := 0; j < width; j++ {
				if mask&(1<<j) != 0 {
					v.Set(j)
				}
			}
			if got, want := out.Satisfied(v), log.Satisfied(v); got != want {
				t.Fatalf("trial %d mask %b: compacted Satisfied = %d, raw = %d", trial, mask, got, want)
			}
		}
	}
}

func mustVec(t *testing.T, s string) bitvec.Vector {
	t.Helper()
	v, err := bitvec.FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
