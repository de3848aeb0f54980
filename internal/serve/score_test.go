package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"standout/internal/core"
)

// TestScoreEndpointMatchesCore checks both counting oracles against the core
// counters on a weighted log: /score is the shard coordinator's entire view
// of a shard, so its counts must be exactly the weighted core counts.
func TestScoreEndpointMatchesCore(t *testing.T) {
	_, ts, log, tuples := newWeightedServer(t, 19, nil)
	specs := make([]string, len(tuples))
	for i, tuple := range tuples {
		specs[i] = tuple.String()
	}
	for _, mode := range []string{"subset", "superset"} {
		status, raw := postJSON(t, ts.URL+"/score", scoreRequest{Mode: mode, Candidates: specs})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d body %s", mode, status, raw)
		}
		resp := decode[scoreResponse](t, raw)
		var want []int
		var err error
		if mode == "subset" {
			want, err = core.CountSatisfied(context.Background(), log, tuples)
		} else {
			want, err = core.CountContaining(context.Background(), log, tuples)
		}
		if err != nil {
			t.Fatalf("%s core counts: %v", mode, err)
		}
		if len(resp.Counts) != len(want) {
			t.Fatalf("%s: %d counts for %d candidates", mode, len(resp.Counts), len(want))
		}
		for i := range want {
			if resp.Counts[i] != want[i] {
				t.Errorf("%s candidate %d: /score %d, core %d", mode, i, resp.Counts[i], want[i])
			}
		}
		if resp.TotalWeight != log.TotalWeight() || resp.Queries != log.Size() || resp.Width != log.Width() {
			t.Errorf("%s snapshot: %d×%d w%d, log is %d×%d w%d", mode,
				resp.Queries, resp.TotalWeight, resp.Width, log.Size(), log.TotalWeight(), log.Width())
		}
		if fp := fmt.Sprintf("%016x", log.Fingerprint()); resp.Fingerprint != fp || resp.Version != log.Version() {
			t.Errorf("%s snapshot: fingerprint %s version %d, log is %s version %d", mode,
				resp.Fingerprint, resp.Version, fp, log.Version())
		}
	}

	// Name-list candidate syntax parses against the schema, like /solve.
	names := strings.Join(log.Schema.Names(tuples[0]), ",")
	status, raw := postJSON(t, ts.URL+"/score", scoreRequest{Mode: "subset", Candidates: []string{names}})
	if status != http.StatusOK {
		t.Fatalf("name-list candidate: status %d body %s", status, raw)
	}
	want, err := core.CountSatisfied(context.Background(), log, tuples[:1])
	if err != nil {
		t.Fatal(err)
	}
	if resp := decode[scoreResponse](t, raw); resp.Counts[0] != want[0] {
		t.Errorf("name-list candidate: /score %d, core %d", resp.Counts[0], want[0])
	}
}

func TestScoreValidation(t *testing.T) {
	_, ts, _, tuples := newTestServer(t, nil)
	bit := tuples[0].String()
	cases := []struct {
		name string
		req  any
	}{
		{"unknown mode", scoreRequest{Mode: "sideways", Candidates: []string{bit}}},
		{"empty candidates", scoreRequest{Mode: "subset"}},
		{"bad candidate", scoreRequest{Mode: "subset", Candidates: []string{"NotAnAttr"}}},
		{"garbage body", "not json"},
	}
	for _, tc := range cases {
		status, raw := postJSON(t, ts.URL+"/score", tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", tc.name, status, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /score = %d, want 405", resp.StatusCode)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	_, ts, log, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	sr := decode[schemaResponse](t, read(t, resp))
	if sr.Width != log.Width() || len(sr.Attrs) != log.Width() {
		t.Fatalf("/schema reports width %d with %d attrs, log width %d", sr.Width, len(sr.Attrs), log.Width())
	}
	for i, name := range log.Schema.Attrs() {
		if sr.Attrs[i] != name {
			t.Fatalf("/schema attr %d = %q, want %q", i, sr.Attrs[i], name)
		}
	}
}
