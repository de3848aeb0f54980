package dataset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"standout/internal/bitvec"
)

// example1 builds the database, query log and new tuple of Fig 1.
func example1(t *testing.T) (*Table, *QueryLog, bitvec.Vector) {
	t.Helper()
	schema := MustSchema([]string{"AC", "FourDoor", "Turbo", "PowerDoors", "AutoTrans", "PowerBrakes"})
	db := NewTable(schema)
	for i, row := range []string{
		"010100", "011000", "100111", "110101", "110000", "010100", "001100",
	} {
		v, err := bitvec.FromString(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(v, ""); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	log := NewQueryLog(schema)
	for _, row := range []string{"110000", "100100", "010100", "000101", "001010"} {
		v, err := bitvec.FromString(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	newTuple, err := bitvec.FromString("110111")
	if err != nil {
		t.Fatal(err)
	}
	return db, log, newTuple
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema([]string{"AC", "Turbo"})
	if s.Width() != 2 {
		t.Errorf("Width=%d", s.Width())
	}
	if s.Index("Turbo") != 1 || s.Index("missing") != -1 {
		t.Error("Index lookups wrong")
	}
	v, err := s.VectorOf("AC")
	if err != nil || !v.Get(0) || v.Get(1) {
		t.Errorf("VectorOf: %v %v", v, err)
	}
	if _, err := s.VectorOf("nope"); err == nil {
		t.Error("VectorOf accepted unknown attribute")
	}
	if got := s.Names(v); !reflect.DeepEqual(got, []string{"AC"}) {
		t.Errorf("Names=%v", got)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema([]string{"a", "a"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema([]string{"a", ""}); err == nil {
		t.Error("empty attribute accepted")
	}
}

func TestGenericSchema(t *testing.T) {
	s := GenericSchema(3)
	if !reflect.DeepEqual(s.Attrs(), []string{"a0", "a1", "a2"}) {
		t.Errorf("attrs=%v", s.Attrs())
	}
}

func TestTableAppendValidates(t *testing.T) {
	s := GenericSchema(4)
	tab := NewTable(s)
	if err := tab.Append(bitvec.New(3), ""); err == nil {
		t.Error("width-mismatched row accepted")
	}
	if err := tab.Append(bitvec.New(4), "row1"); err != nil {
		t.Fatal(err)
	}
	if tab.Size() != 1 || tab.IDs[0] != "row1" {
		t.Error("append with id failed")
	}
}

func TestExample1Satisfied(t *testing.T) {
	_, log, _ := example1(t)
	best, err := log.Schema.VectorOf("AC", "FourDoor", "PowerDoors")
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Satisfied(best); got != 3 {
		t.Errorf("Satisfied=%d, want 3 (q1,q2,q3)", got)
	}
	if got := log.SatisfiedBy(best); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("SatisfiedBy=%v", got)
	}
}

func TestExample1Domination(t *testing.T) {
	db, _, _ := example1(t)
	tPrime, err := db.Schema.VectorOf("AC", "FourDoor", "PowerDoors", "PowerBrakes")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.DominatedBy(tPrime); !reflect.DeepEqual(got, []int{0, 3, 4, 5}) {
		t.Errorf("DominatedBy=%v, want [0 3 4 5] (t1,t4,t5,t6)", got)
	}
}

func TestAttrFrequencies(t *testing.T) {
	_, log, _ := example1(t)
	want := []int{2, 2, 1, 3, 1, 1}
	if got := log.AttrFrequencies(); !reflect.DeepEqual(got, want) {
		t.Errorf("AttrFrequencies=%v, want %v", got, want)
	}
}

// TestAttrFrequenciesAllocsOnce pins AttrFrequencies at one allocation,
// its result, on a weighted log wider than one word: the greedy seed and
// fallback of a one-shot mfi-exact solve run it over the projected log.
func TestAttrFrequenciesAllocsOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	log := NewQueryLog(GenericSchema(90))
	for i := 0; i < 200; i++ {
		q := bitvec.New(90)
		for k := 0; k < 1+r.Intn(6); k++ {
			q.Set(r.Intn(90))
		}
		if err := log.AppendWeighted(q, 1+r.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { log.AttrFrequencies() }); got != 1 {
		t.Fatalf("AttrFrequencies of %d queries: %v allocations, want 1", log.Size(), got)
	}
}

func TestTopAttrs(t *testing.T) {
	_, log, _ := example1(t)
	// Frequencies: a3:3, a0:2, a1:2, rest 1; stable ties by index.
	if got := log.TopAttrs(3); !reflect.DeepEqual(got, []int{3, 0, 1}) {
		t.Errorf("TopAttrs=%v", got)
	}
	if got := log.TopAttrs(100); len(got) != 6 {
		t.Errorf("TopAttrs clamp failed: %v", got)
	}
	if got := log.TopAttrs(-1); len(got) != 0 {
		t.Errorf("TopAttrs(-1)=%v", got)
	}
}

func TestComplementInvolution(t *testing.T) {
	_, log, _ := example1(t)
	back := log.AsTable().Complement().Complement()
	for i, r := range back.Rows {
		if !r.Equal(log.Queries[i]) {
			t.Errorf("query %d changed after double complement", i)
		}
	}
}

func TestDensity(t *testing.T) {
	db, _, _ := example1(t)
	// 18 ones out of 42 cells.
	if got, want := db.Density(), 18.0/42.0; got != want {
		t.Errorf("Density=%v, want %v", got, want)
	}
	if NewTable(GenericSchema(3)).Density() != 0 {
		t.Error("empty table density should be 0")
	}
}

func TestRestrict(t *testing.T) {
	_, log, newTuple := example1(t)
	r := log.Restrict(newTuple)
	// t = 110111 satisfies-able queries: q1(110000)⊆t, q2(100100)⊆t,
	// q3(010100)⊆t, q4(000101)⊆t; q5(001010) needs Turbo which t lacks.
	if r.Size() != 4 {
		t.Errorf("Restrict kept %d queries, want 4", r.Size())
	}
}

func TestDedup(t *testing.T) {
	s := GenericSchema(3)
	log := NewQueryLog(s)
	q1 := bitvec.FromIndices(3, 0)
	q2 := bitvec.FromIndices(3, 1, 2)
	for _, q := range []bitvec.Vector{q1, q2, q1, q1} {
		if err := log.Append(q); err != nil {
			t.Fatal(err)
		}
	}
	d, w := log.Dedup()
	if d.Size() != 2 || !reflect.DeepEqual(w, []int{3, 1}) {
		t.Errorf("Dedup: size=%d weights=%v", d.Size(), w)
	}
}

func TestSizeHistogram(t *testing.T) {
	_, log, _ := example1(t)
	want := map[int]int{2: 5}
	if got := log.SizeHistogram(); !reflect.DeepEqual(got, want) {
		t.Errorf("SizeHistogram=%v, want %v", got, want)
	}
}

func TestLogFromTableRoundTrip(t *testing.T) {
	db, _, _ := example1(t)
	log := LogFromTable(db)
	if log.Size() != db.Size() || log.Width() != db.Width() {
		t.Error("LogFromTable changed dimensions")
	}
	// Satisfied on the log == DominatedBy count on the table, for any v.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := bitvec.New(db.Width())
		for i := 0; i < v.Width(); i++ {
			if r.Intn(2) == 1 {
				v.Set(i)
			}
		}
		return log.Satisfied(v) == len(db.DominatedBy(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	db, log, _ := example1(t)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	db.Rows = append(db.Rows, bitvec.New(2))
	if err := db.Validate(); err == nil {
		t.Error("Validate missed bad row width")
	}
	log.Queries = append(log.Queries, bitvec.New(9))
	if err := log.Validate(); err == nil {
		t.Error("Validate missed bad query width")
	}
	bad := &Table{Schema: GenericSchema(2), Rows: []bitvec.Vector{bitvec.New(2), bitvec.New(2)}, IDs: []string{"only-one"}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate missed ID/row count mismatch")
	}
}

func TestVersionAndFingerprint(t *testing.T) {
	log := NewQueryLog(GenericSchema(6))
	v0, f0 := log.Version(), log.Fingerprint()
	if err := log.Append(bitvec.FromIndices(6, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if log.Version() == v0 {
		t.Error("Append did not bump the version")
	}
	if log.Fingerprint() == f0 {
		t.Error("Append did not change the fingerprint")
	}

	// Fingerprint is a pure function of contents: an identical log matches,
	// and recomputation is stable.
	twin := NewQueryLog(GenericSchema(6))
	if err := twin.Append(bitvec.FromIndices(6, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if log.Fingerprint() != twin.Fingerprint() {
		t.Error("identical logs disagree on fingerprint")
	}
	if log.Fingerprint() != log.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}

	// Order matters (the greedy heuristics are order-sensitive, so logs that
	// differ only by permutation must not share cached state).
	a := NewQueryLog(GenericSchema(6))
	b := NewQueryLog(GenericSchema(6))
	for _, idx := range [][]int{{0}, {1, 2}} {
		if err := a.Append(bitvec.FromIndices(6, idx...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range [][]int{{1, 2}, {0}} {
		if err := b.Append(bitvec.FromIndices(6, idx...)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("permuted logs share a fingerprint")
	}

	// In-place mutation is invisible to Version until Touch announces it,
	// but always visible to Fingerprint.
	fBefore, vBefore := log.Fingerprint(), log.Version()
	log.Queries[0].Set(5)
	if log.Version() != vBefore {
		t.Error("in-place mutation bumped version without Touch")
	}
	if log.Fingerprint() == fBefore {
		t.Error("in-place mutation did not change fingerprint")
	}
	log.Touch()
	if log.Version() == vBefore {
		t.Error("Touch did not bump the version")
	}
}
