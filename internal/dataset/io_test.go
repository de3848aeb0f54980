package dataset

import (
	"bytes"
	"strings"
	"testing"

	"standout/internal/bitvec"
)

const carsCSV = `id,AC,FourDoor,Turbo
car1,1,0,1
car2,0,1,0
`

func TestReadTableCSV(t *testing.T) {
	tab, err := ReadTableCSV(strings.NewReader(carsCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Size() != 2 || tab.Width() != 3 {
		t.Fatalf("got %dx%d", tab.Size(), tab.Width())
	}
	if tab.IDs[0] != "car1" || tab.IDs[1] != "car2" {
		t.Errorf("IDs=%v", tab.IDs)
	}
	if tab.Rows[0].String() != "101" || tab.Rows[1].String() != "010" {
		t.Errorf("rows=%v %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestTableCSVRoundTrip(t *testing.T) {
	tab, err := ReadTableCSV(strings.NewReader(carsCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTableCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != tab.Size() {
		t.Fatalf("round trip changed size")
	}
	for i := range tab.Rows {
		if !back.Rows[i].Equal(tab.Rows[i]) || back.IDs[i] != tab.IDs[i] {
			t.Errorf("row %d changed in round trip", i)
		}
	}
}

func TestTableCSVNoIDs(t *testing.T) {
	tab, err := ReadTableCSV(strings.NewReader("AC,Turbo\n1,1\n0,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.IDs != nil {
		t.Errorf("unexpected IDs: %v", tab.IDs)
	}
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.HasPrefix(got, "AC,Turbo\n") {
		t.Errorf("header wrong: %q", got)
	}
}

func TestReadTableCSVErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad cell", "a,b\n1,2\n"},
		{"ragged row", "a,b\n1\n"},
		{"dup attrs", "a,a\n1,1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTableCSV(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadTableCSV(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestReadQueryLogCSV(t *testing.T) {
	log, err := ReadQueryLogCSV(strings.NewReader("AC,Turbo\n1,0\n1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if log.Size() != 2 {
		t.Fatalf("size=%d", log.Size())
	}
	var buf bytes.Buffer
	if err := WriteQueryLogCSV(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQueryLogCSV(&buf)
	if err != nil || back.Size() != 2 {
		t.Fatalf("round trip: %v size=%d", err, back.Size())
	}
}

func TestParseTuple(t *testing.T) {
	s := MustSchema([]string{"AC", "FourDoor", "Turbo"})
	v, err := ParseTuple(s, "101")
	if err != nil || v.String() != "101" {
		t.Errorf("bit string parse: %v %v", v, err)
	}
	v, err = ParseTuple(s, "AC, Turbo")
	if err != nil || v.String() != "101" {
		t.Errorf("name parse: %v %v", v, err)
	}
	if _, err := ParseTuple(s, "10"); err == nil {
		t.Error("short bit string accepted")
	}
	if _, err := ParseTuple(s, "AC,Nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestParseTupleAllocsOnce pins the bit-string parse at one allocation, the
// vector's words: every /score candidate and POST /log query pays it.
func TestParseTupleAllocsOnce(t *testing.T) {
	s := GenericSchema(32)
	spec := "10110010011100001111000010101010"
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ParseTuple(s, spec); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("ParseTuple of a 32-bit string: %v allocations, want 1", got)
	}
}

func TestParseTupleNameWidthAmbiguity(t *testing.T) {
	// A schema with a 0/1-looking attribute name: bit-string interpretation
	// wins only when the width matches.
	s := MustSchema([]string{"0"})
	v, err := ParseTuple(s, "0")
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Errorf("expected bit-string parse, got %v", v)
	}
}

func catFixture(t *testing.T) (*CatSchema, CatTuple, *CatLog) {
	t.Helper()
	cs, err := NewCatSchema(
		[]string{"Make", "Color"},
		[][]string{{"Honda", "Toyota"}, {"Red", "Blue", "White"}})
	if err != nil {
		t.Fatal(err)
	}
	tuple := CatTuple{0, 2} // Honda, White
	log := &CatLog{Schema: cs, Queries: []CatQuery{
		{0, -1},  // Make=Honda
		{0, 2},   // Make=Honda, Color=White
		{1, -1},  // Make=Toyota — can never match the tuple
		{-1, -1}, // unconstrained
	}}
	return cs, tuple, log
}

func TestCatSchemaErrors(t *testing.T) {
	if _, err := NewCatSchema([]string{"a"}, nil); err == nil {
		t.Error("mismatched domains accepted")
	}
	if _, err := NewCatSchema([]string{"a"}, [][]string{{}}); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewCatSchema([]string{"a"}, [][]string{{"x", "x"}}); err == nil {
		t.Error("duplicate value accepted")
	}
}

func TestCatValidate(t *testing.T) {
	cs, tuple, log := catFixture(t)
	if err := cs.Validate(tuple); err != nil {
		t.Error(err)
	}
	if err := cs.Validate(CatTuple{0}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := cs.Validate(CatTuple{0, 5}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	for _, q := range log.Queries {
		if err := cs.ValidateQuery(q); err != nil {
			t.Error(err)
		}
	}
	if err := cs.ValidateQuery(CatQuery{-2, 0}); err == nil {
		t.Error("bad query value accepted")
	}
}

func TestCatRetrieves(t *testing.T) {
	_, tuple, log := catFixture(t)
	want := []bool{true, true, false, true}
	for i, q := range log.Queries {
		if got := q.Retrieves(tuple); got != want[i] {
			t.Errorf("query %d: Retrieves=%v, want %v", i, got, want[i])
		}
	}
}

func TestCatBooleanize(t *testing.T) {
	cs, tuple, log := catFixture(t)
	blog, bt, schema := log.Booleanize(tuple)
	if schema.Width() != 5 { // 2 makes + 3 colors
		t.Fatalf("expanded width=%d", schema.Width())
	}
	if schema.Index("Make=Honda") != 0 || schema.Index("Color=White") != 4 {
		t.Errorf("expanded names wrong: %v", schema.Attrs())
	}
	if bt.Count() != cs.Width() {
		t.Errorf("Booleanized tuple has %d bits, want one per attribute", bt.Count())
	}
	// Boolean satisfaction must coincide with categorical retrieval.
	for i, q := range log.Queries {
		if got := blog.Queries[i].SubsetOf(bt); got != q.Retrieves(tuple) {
			t.Errorf("query %d: boolean %v != categorical %v", i, got, q.Retrieves(tuple))
		}
	}
}

func TestCatReduceForTuple(t *testing.T) {
	_, tuple, log := catFixture(t)
	reduced, origin := log.ReduceForTuple(tuple)
	// Query 2 (Make=Toyota) is dropped.
	if reduced.Size() != 3 || len(origin) != 3 {
		t.Fatalf("reduced size=%d origin=%v", reduced.Size(), origin)
	}
	if origin[0] != 0 || origin[1] != 1 || origin[2] != 3 {
		t.Errorf("origin=%v", origin)
	}
	// Full tuple (all attributes retained) satisfies all kept queries.
	full := bitvec.New(reduced.Width()).Not()
	if reduced.Satisfied(full) != 3 {
		t.Errorf("full retention satisfies %d", reduced.Satisfied(full))
	}
}

func TestNumericReductions(t *testing.T) {
	s := MustSchema([]string{"Price", "Miles", "Year"})
	nl := &NumLog{Schema: s}
	q1 := NewRangeQuery(3)
	q1.SetRange(0, 5000, 10000) // contains
	q1.SetRange(2, 2000, 2010)  // contains
	q2 := NewRangeQuery(3)
	q2.SetRange(1, 0, 30000) // does not contain (50000)
	q2.SetRange(0, 0, 20000) // contains
	q3 := NewRangeQuery(3)   // unconstrained
	nl.Queries = []RangeQuery{q1, q2, q3}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}

	tuple := []float64{8000, 50000, 2005}
	if !q1.Passes(tuple) || q2.Passes(tuple) || !q3.Passes(tuple) {
		t.Fatal("Passes sanity check failed")
	}

	lit, litT, litOrigin, err := nl.ReduceLiteral(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if lit.Size() != 3 || len(litOrigin) != 3 {
		t.Fatalf("literal size=%d", lit.Size())
	}
	if lit.Queries[0].String() != "101" {
		t.Errorf("literal q1=%v", lit.Queries[0])
	}
	if lit.Queries[1].String() != "100" { // failing Miles condition dropped to 0
		t.Errorf("literal q2=%v", lit.Queries[1])
	}
	if litT.Count() != 3 {
		t.Errorf("literal tuple not all ones: %v", litT)
	}

	strict, _, strictOrigin, err := nl.ReduceStrict(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Size() != 2 || strictOrigin[0] != 0 || strictOrigin[1] != 2 {
		t.Fatalf("strict size=%d origin=%v", strict.Size(), strictOrigin)
	}

	// Strict visibility never exceeds literal visibility for any compression.
	for _, v := range []bitvec.Vector{
		bitvec.FromIndices(3, 0), bitvec.FromIndices(3, 0, 2), bitvec.New(3).Not(),
	} {
		if strict.Satisfied(v) > lit.Satisfied(v) {
			t.Errorf("strict > literal for %v", v)
		}
	}

	if _, _, _, err := nl.ReduceLiteral([]float64{1}); err == nil {
		t.Error("short tuple accepted by ReduceLiteral")
	}
	if _, _, _, err := nl.ReduceStrict([]float64{1}); err == nil {
		t.Error("short tuple accepted by ReduceStrict")
	}
}

func TestIntervalAndUnbounded(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 2}
	if !iv.Contains(1) || !iv.Contains(2) || iv.Contains(2.1) {
		t.Error("closed interval semantics wrong")
	}
	if !Unbounded().Contains(1e300) || !Unbounded().Contains(-1e300) {
		t.Error("Unbounded not unbounded")
	}
}

func TestNumLogValidateCatchesWidth(t *testing.T) {
	nl := &NumLog{Schema: GenericSchema(2), Queries: []RangeQuery{NewRangeQuery(3)}}
	if err := nl.Validate(); err == nil {
		t.Error("width mismatch accepted")
	}
}
