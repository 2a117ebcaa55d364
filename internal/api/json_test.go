package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphrealize"
	"graphrealize/internal/api"
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

// TestSequenceDecodeSizesByIntegers: the decoder's buffer grows with the
// integers it parses, never with the body's length.
func TestSequenceDecodeSizesByIntegers(t *testing.T) {
	var s api.Sequence
	body := "[" + strings.Repeat(" ", 1<<20) + "1]"
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s, api.Sequence{1}) || cap(s) > 8 {
		t.Fatalf("decoded %v with capacity %d, want [1] in a small buffer", s, cap(s))
	}
}

// TestSequenceDecodeAllocatesOnce pins the decoder's allocations: a plain
// 4,096-int array costs one allocation, the result at its exact length, and
// a value the fast path hands to encoding/json costs the fast path none.
func TestSequenceDecodeAllocatesOnce(t *testing.T) {
	ints := make([]string, 4096)
	for i := range ints {
		ints[i] = strconv.Itoa(i%4 + 1)
	}
	body := []byte("[" + strings.Join(ints, ",") + "]")
	var s api.Sequence
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || len(s) != 4096 || cap(s) != 4096 || s[4095] != 4 {
		t.Fatalf("%v allocations, len %d, cap %d: want one allocation of exactly 4096 ints", allocs, len(s), cap(s))
	}
	// [1,2.5] fails the fast path part-way and goes to encoding/json: it
	// must cost exactly what encoding/json alone costs.
	fallback := []byte("[1,2.5]")
	want := testing.AllocsPerRun(20, func() {
		var v []int
		_ = json.Unmarshal(fallback, &v)
	})
	got := testing.AllocsPerRun(20, func() {
		var v api.Sequence
		_ = v.UnmarshalJSON(fallback)
	})
	if got != want {
		t.Fatalf("fallback: %v allocations, encoding/json alone %v", got, want)
	}
}

// FuzzSequenceDecode is a differential test of Sequence.UnmarshalJSON
// against encoding/json's own []int decoding. The fuzzed bytes are the value
// of "sequence" in an otherwise valid body, decoded with
// DisallowUnknownFields into two structs of one type name, so error texts
// name the same field; with dup set, an earlier "sequence" member has
// filled the slice already. Both sides must agree on success, on the ints
// (nil-ness included) and on the error text. Called directly on the bytes,
// which encoding/json never passes unchecked, UnmarshalJSON must agree with
// json.Unmarshal into a []int as well.
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
		var direct api.Sequence
		var ints []int
		directErr := direct.UnmarshalJSON(value)
		intsErr := json.Unmarshal(value, &ints)
		compareDecodes(t, value, directErr, intsErr, direct, ints)

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
		want, wantErr := decodeInts(body)
		got, gotErr := decodeSequence(body)
		compareDecodes(t, body, gotErr, wantErr, got, want)
	})
}

// compareDecodes fails unless the Sequence decode of input matches
// encoding/json's []int decode: the same error text and the same ints,
// nil-ness included.
func compareDecodes(t *testing.T, input []byte, gotErr, wantErr error, got, want []int) {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %q, encoding/json says %q", input, errText(gotErr), errText(wantErr))
	}
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%q: decoded %#v, encoding/json decodes %#v", input, got, want)
	}
}

func decodeInts(body []byte) ([]int, error) {
	type request struct {
		Sequence []int `json:"sequence"`
	}
	var r request
	err := strictDecode(body, &r)
	return r.Sequence, err
}

func decodeSequence(body []byte) ([]int, error) {
	type request struct {
		Sequence api.Sequence `json:"sequence"`
	}
	var r request
	err := strictDecode(body, &r)
	return r.Sequence, err
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
