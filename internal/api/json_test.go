package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphrealize"
	"graphrealize/internal/api"
	"graphrealize/internal/gen"
)

// TestAppendJSONMatchesEncodingJSON: AppendJSON writes exactly the bytes
// json.NewEncoder(w).Encode writes for the same response with Edges =
// Graph.Edges(): every kind with and without its edge list, an edgeless
// graph, an envelope, phases zero and positive, cached both ways, and
// elapsed_ms values on both sides of encoding/json's exponent cutoffs.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	tree := []int{3, 3, 2, 1, 1, 1, 1, 2}
	jobs := []graphrealize.Job{
		{Kind: graphrealize.JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}},
		{Kind: graphrealize.JobDegrees, Seq: []int{0, 0, 0}},
		{Kind: graphrealize.JobDegreesExplicit, Seq: []int{3, 3, 2, 2, 2, 2}},
		{Kind: graphrealize.JobUpperEnvelope, Seq: []int{3, 3, 1, 1}},
		{Kind: graphrealize.JobChainTree, Seq: tree},
		{Kind: graphrealize.JobMinDiamTree, Seq: tree},
		{Kind: graphrealize.JobConnectivity, Seq: []int{2, 2, 1, 1, 1, 1}, Opt: &graphrealize.Options{Model: graphrealize.NCC1}},
		{Kind: graphrealize.JobConnectivity, Seq: []int{2, 2, 1, 1, 1, 1}},
	}
	var edgeless, envelope, phases, noPhases bool
	for _, j := range jobs {
		res := graphrealize.Execute(context.Background(), j)
		if res.Err != nil {
			t.Fatalf("%s %v: %v", j.Kind, j.Seq, res.Err)
		}
		edgeless = edgeless || res.Graph.M() == 0
		envelope = envelope || len(res.Envelope) > 0
		phases = phases || res.Stats.Phases > 0
		noPhases = noPhases || res.Stats.Phases == 0
		for _, omit := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				for _, ms := range []float64{0, 0.001, 1.5, 123456.789, 1e21, 1e-7, -2.5} {
					r := api.RealizeResponse{
						Kind:      j.Kind.String(),
						N:         res.Graph.N,
						M:         res.Graph.M(),
						Envelope:  res.Envelope,
						Stats:     api.StatsOf(res.Stats),
						Cached:    cached,
						ElapsedMS: ms,
					}
					var adj [][]int
					if !omit {
						adj = res.Graph.Adj
					}
					checkAppendJSON(t, r, adj, res.Graph)
				}
			}
		}
	}
	if !edgeless || !envelope || !phases || !noPhases {
		t.Fatalf("table lost a case: edgeless %v, envelope %v, phases>0 %v, phases=0 %v", edgeless, envelope, phases, noPhases)
	}
	// Any kind name is escaped as encoding/json escapes it.
	for _, kind := range []string{"", `a"b\c`, "<&>", "é\n ", "\xff"} {
		checkAppendJSON(t, api.RealizeResponse{Kind: kind}, nil, nil)
	}
	// Only (u < v) pairs are listed, as Graph.Edges lists them, whatever
	// else adj holds: here the self-loops (0,0) and (1,1).
	g := &graphrealize.Graph{N: 3, Adj: [][]int{{0, 1}, {0, 1}, {}}}
	checkAppendJSON(t, api.RealizeResponse{N: g.N, M: g.M()}, g.Adj, g)
	// A path on 100,001 vertices lists IDs of one to six digits, across
	// every power-of-ten boundary the digit writer has.
	path := &graphrealize.Graph{N: 100_001, Adj: make([][]int, 100_001)}
	for v := range path.N - 1 {
		path.Adj[v] = append(path.Adj[v], v+1)
		path.Adj[v+1] = append(path.Adj[v+1], v)
	}
	checkAppendJSON(t, api.RealizeResponse{Kind: "degrees", N: path.N, M: path.M()}, path.Adj, path)
}

// checkAppendJSON compares AppendJSON, appended after a prefix, with
// encoding/json's body for r with g's edge list when adj is g's.
func checkAppendJSON(t *testing.T, r api.RealizeResponse, adj [][]int, g *graphrealize.Graph) {
	t.Helper()
	ref := r
	if adj != nil {
		ref.Edges = g.Edges()
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&ref); err != nil {
		t.Fatal(err)
	}
	got := r.AppendJSON([]byte("prefix"), adj)
	if string(got) != "prefix"+want.String() {
		t.Errorf("AppendJSON differs from encoding/json:\n got %s\nwant prefix%s", got, want.Bytes())
	}
}

// TestDecodeRealizeRequestAllocations pins the hand decoder on the plain
// shape: perfbench hot-edges' n = 4,096 body costs the sequence, the
// options and the model string, nothing for the body's syntax.
func TestDecodeRealizeRequestAllocations(t *testing.T) {
	body := plainBody(t, gen.UniformRho(4096, 4, 1), "", "ncc1", 1)
	var req api.RealizeRequest
	allocs := testing.AllocsPerRun(20, func() {
		if err := api.DecodeRealizeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 || len(req.Sequence) != 4096 || cap(req.Sequence) != 4096 || req.Options.Model != "ncc1" {
		t.Fatalf("%v allocations, len %d, cap %d, options %+v: want 3 and exactly 4096 ints", allocs, len(req.Sequence), cap(req.Sequence), req.Options)
	}
}

// plainBody is a request body as perfbench sends it: the options object
// always present, its seed always set.
func plainBody(tb testing.TB, seq []int, variant, model string, seed int64) []byte {
	type opts struct {
		Model string `json:"model,omitempty"`
		Seed  int64  `json:"seed"`
	}
	body, err := json.Marshal(struct {
		Sequence []int  `json:"sequence"`
		Variant  string `json:"variant,omitempty"`
		Options  opts   `json:"options"`
	}{seq, variant, opts{model, seed}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzRealizeRequestDecode is a differential test of DecodeRealizeRequest
// against the strict decode it stands for: a json.Decoder with
// DisallowUnknownFields into a zero RealizeRequest. For every body both
// must agree on the error text and on the value, nil against empty
// sequences and nil against set options included, whether the hand
// decoder took the body or handed it over. The target starts from a
// filled request, which DecodeRealizeRequest must reset.
func FuzzRealizeRequestDecode(f *testing.F) {
	// The bodies perfbench sends: hot-edges, then each cold-mix kind.
	f.Add(plainBody(f, gen.UniformRho(4096, 4, 1), "", "ncc1", 1))
	f.Add(plainBody(f, gen.FromRandomGraph(32, 0.25, 1), "", "", 77))
	f.Add(plainBody(f, gen.FromRandomGraph(32, 0.25, 2), "explicit", "", 1<<31))
	f.Add(plainBody(f, gen.TreeSequence(32, 3), "", "", 5))
	f.Add(plainBody(f, gen.TreeSequence(32, 4), "mindiam", "", 6))
	f.Add(plainBody(f, gen.UniformRho(32, 4, 5), "", "ncc1", 7))
	f.Add(plainBody(f, gen.UniformRho(32, 4, 6), "", "", 8))
	for _, body := range []string{
		// The serving tests' bodies.
		`{"sequence":[3,`, `{"sequenze":[1,1]}`, `{"sequence":[]}`, `{}`,
		`{"sequence":[1,1],"variant":"nope"}`, `{"sequence":[1,1],"options":{"model":"ncc9"}}`,
		`{"sequence":[1,1],"options":{"sort":"bogo"}}`, `{"sequence":[2,2,2],"options":{"max_rounds":-1}}`,
		`{"sequence":[2,2,2],"options":{"cap_mul":-3,"strict":true}}`, `{"sequence":[2,2,2],"options":{"cap_mul":-3}}`,
		`{"sequence":[1,1],"options":{"max_rounds":1}}`,
		`{"kind":"degrees","sequence":[1,1],"seeds":[1],"options":{"max_rounds":2}}`,
		`{"sequence":[2,2,2,2,2,2,2,2],"options":{"strict":true,"cap_mul":1,"sort":"merge"}}`,
		`{"kind":"degrees","sequence":[2,2,2,2,2,2,2,2],"seeds":[0],"options":{"strict":true,"cap_mul":1,"sort":"merge"}}`,
		`{"sequence":[1,1]}`, `{"sequence":[3,3,1,1]}`, `{"sequence":[3,3,3,3]}`,
		`{"sequence":[3,3,2,2,2,2],"options":{"seed":7}}`,
		`{"sequence":[2,2,2,2],"variant":"explicit","omit_edges":true}`,
		`{"sequence":[3,3,1,1],"variant":"envelope"}`, `{"sequence":[3,3,2,1,1,1,1,2],"variant":"mindiam"}`,
		`{"sequence":[2,2,1,1,1,1],"options":{"model":"ncc1","sort":"oddeven"}}`, `{"sequence":[0,0,0]}`,
		`{"kind":"degrees","sequence":[2,2,2],"seeds":[1,2]}`,
		`{"kind":"connectivity","sequence":[2,2,1,1],"seed_count":3,"seed_start":5}`,
		`{"kind":"chain-tree","sequence":[1,1],"label":"x"}`, `{"variant":3,"sequence":["a"]}`,
		`{"sequence":[1.5,1e2,null]}`, `{"sequence":[1,1],"options":{"cap_mul":-3,"max_rounds":1}}`,
		`{"sequence":[9223372036854775807,9223372036854775807,2,2]}`,
		`{"sequence":[1],"options":{"scheduler":"pool","strict":false}}`,
		// Other spellings and repeated members.
		`{"Sequence":[1,1]}`, `{"sequence":[1],"OPTIONS":{"Seed":2}}`,
		`{"sequence":[1],"sequence":[2,3]}`, `{"sequence":[1,2],"sequence":[3,"a"]}`,
		`{"sequence":[1],"options":{"seed":1},"options":{"model":"ncc1"}}`,
		`{"sequence":[1],"options":{"seed":1,"seed":2}}`, `{"variant":"a","variant":"b"}`,
		// Escapes, invalid UTF-8 and nulls.
		`{"sequence":[1],"variant":"\u0065xplicit"}`, `{"sequence":[1],"variant":"\""}`,
		"{\"sequence\":[1],\"variant\":\"\xff\"}", "{\"sequence\":[1],\"variant\":\"é\"}",
		"{\"sequence\":[1],\"variant\":\"a\tb\"}", `{"sequence":[1],"options":null}`,
		`{"sequence":null}`, `{"sequence":[1],"omit_edges":null}`, `null`,
		// Integers at and past their fields' edges.
		`{"sequence":[1],"options":{"seed":9223372036854775807}}`,
		`{"sequence":[1],"options":{"seed":-9223372036854775808}}`,
		`{"sequence":[1],"options":{"seed":9223372036854775808}}`,
		`{"sequence":[1],"options":{"cap_mul":-9223372036854775809}}`,
		`{"sequence":[1],"options":{"seed":1.0}}`, `{"sequence":[1],"options":{"max_rounds":1e2}}`,
		`{"sequence":[1.0]}`, `{"sequence":[1e2]}`, `{"sequence":[-0],"options":{"seed":-0}}`,
		`{"sequence":[01]}`, `{"sequence":[1],"options":{"seed":01}}`, `{"sequence":[1],"omit_edges":1}`,
		// A byte-order mark, whitespace, and bytes after the object.
		"\xef\xbb\xbf{\"sequence\":[1]}", " \t\r\n{ \"sequence\" : [ 1 , 2 ] , \"omit_edges\" : true } ",
		`{"sequence":[1]}trailing`, `{"sequence":[1]}{"sequence":[2]}`, `{"sequence":[1]`, ``, `[1]`,
		`{"sequence":[1],}`, `{,"sequence":[1]}`, `{"sequence":[1] "variant":"x"}`, `{"omit_edges":truex}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want api.RealizeRequest
		wantErr := strictDecode(body, &want)
		got := api.RealizeRequest{Sequence: []int{9}, Variant: "x", Options: &api.OptionsJSON{Seed: 3}, OmitEdges: true}
		gotErr := api.DecodeRealizeRequest(body, &got)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%q: error %q, encoding/json says %q", body, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v (options %#v), encoding/json decodes %#v (options %#v)", body, got, got.Options, want, want.Options)
		}
	})
}

// TestSequenceDecodeSizesByIntegers: the decoded sequence grows with the
// integers the hand decoder parses, never with the body's length.
func TestSequenceDecodeSizesByIntegers(t *testing.T) {
	body := `{"sequence":[` + strings.Repeat(" ", 1<<20) + "1]}"
	var req api.RealizeRequest
	if err := api.DecodeRealizeRequest([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(req.Sequence, []int{1}) || cap(req.Sequence) != 1 {
		t.Fatalf("decoded %v with capacity %d, want [1] at its exact length", req.Sequence, cap(req.Sequence))
	}
}

// TestSequenceDecodeAllocatesOnce pins the sequence's share of the hand
// decoder's allocations: a body holding a plain 4,096-int sequence and
// nothing else costs one allocation, the sequence at its exact length, and
// a sequence the hand decoder hands to encoding/json costs no more than
// encoding/json alone.
func TestSequenceDecodeAllocatesOnce(t *testing.T) {
	ints := make([]string, 4096)
	for i := range ints {
		ints[i] = strconv.Itoa(i%4 + 1)
	}
	body := []byte(`{"sequence":[` + strings.Join(ints, ",") + "]}")
	var req api.RealizeRequest
	allocs := testing.AllocsPerRun(20, func() {
		if err := api.DecodeRealizeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if s := req.Sequence; allocs != 1 || len(s) != 4096 || cap(s) != 4096 || s[4095] != 4 {
		t.Fatalf("%v allocations, len %d, cap %d: want one allocation of exactly 4096 ints", allocs, len(s), cap(s))
	}
	// [1,2.5] fails the hand decoder part-way and goes to encoding/json: it
	// must cost exactly what encoding/json alone costs.
	fallback := []byte(`{"sequence":[1,2.5]}`)
	want := testing.AllocsPerRun(20, func() {
		req = api.RealizeRequest{}
		_ = strictDecode(fallback, &req)
	})
	got := testing.AllocsPerRun(20, func() {
		_ = api.DecodeRealizeRequest(fallback, &req)
	})
	if got != want {
		t.Fatalf("fallback: %v allocations, encoding/json alone %v", got, want)
	}
}

// FuzzSequenceDecode is a differential test of the hand decoder's sequence
// scan against encoding/json's own []int decoding, with the fuzzed bytes as
// the value of "sequence" in an otherwise valid body; with dup set, an
// earlier "sequence" member has filled the slice already. It shares
// FuzzRealizeRequestDecode's check, DecodeRealizeRequest against a strict
// json.Decoder, but spends every mutation on the sequence value, where the
// hand decoder parses integers itself.
func FuzzSequenceDecode(f *testing.F) {
	for _, v := range []string{
		`[]`, `null`, `[1,null,2]`, `[-0,-5]`, `[01]`, `[1e2]`, `[1.5]`, `["a"]`, `[true]`,
		`[9223372036854775807,-9223372036854775808]`, `[9223372036854775808]`, `[-9223372036854775809]`,
		" \t\r\n[ 1 ,\n2 ] \n", `[[1]]`, `[{}]`, `{}`, `"a"`, `7`, `[1,`, `[-]`, `[1,]`, `[1]x`, "[\f1]",
	} {
		f.Add([]byte(v), false)
	}
	for _, v := range []string{`[4]`, `[4,"a"]`, `null`, `[]`, `[1,2,3,4,5]`, `[1,2.5]`} {
		f.Add([]byte(v), true)
	}
	f.Fuzz(func(t *testing.T, value []byte, dup bool) {
		prefix := `{"sequence":`
		if dup {
			prefix += `[7,8,9],"sequence":`
		}
		body := []byte(prefix + string(value) + "}")
		if !json.Valid(value) && json.Valid(body) {
			// The bytes closed the value and went on to add members of
			// their own: no longer one faulty value in a valid body.
			t.Skip()
		}
		var want, got api.RealizeRequest
		wantErr := strictDecode(body, &want)
		gotErr := api.DecodeRealizeRequest(body, &got)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%q: error %q, encoding/json says %q", body, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, encoding/json decodes %#v", body, got, want)
		}
	})
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
