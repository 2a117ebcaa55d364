package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenHex is the worked example of WIRE.md §9: the 4-vertex graph with
// edges {0,1} {0,2} {0,3} {1,2}, encoded with no metadata chunk.
const goldenHex = "47525746010300000038b2829d0104040b00000031a2bd09" +
	"02000403010101010100000100000037be0b4b03"

// goldenAdj is that graph's full symmetric adjacency.
func goldenAdj() (int, [][]int) {
	return 4, [][]int{{1, 2, 3}, {0, 2}, {0, 1}, {0}}
}

// TestGoldenWorkedExample pins the encoder byte-for-byte to the worked
// example in WIRE.md §9 and decodes those exact bytes back.
func TestGoldenWorkedExample(t *testing.T) {
	want, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatalf("bad golden hex: %v", err)
	}
	n, adj := goldenAdj()
	got, err := EncodeGraph(n, adj)
	if err != nil {
		t.Fatalf("EncodeGraph: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder diverged from WIRE.md §9:\n got %x\nwant %x", got, want)
	}
	msg, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if !msg.HasGraph || msg.N != 4 || msg.M != 4 {
		t.Fatalf("golden decoded to n=%d m=%d hasGraph=%v, want 4/4/true", msg.N, msg.M, msg.HasGraph)
	}
	if !adjEqual(msg.Adj, adj) {
		t.Fatalf("golden adjacency = %v, want %v", msg.Adj, adj)
	}
}

// randomGraph builds a random simple graph on n vertices with edge
// probability p, returning sorted symmetric adjacency and the edge count.
func randomGraph(rng *rand.Rand, n int, p float64) ([][]int, int) {
	adj := make([][]int, n)
	m := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				m++
			}
		}
	}
	return adj, m
}

func adjEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRoundTripRandomGraphs is the encode→decode == identity property of
// WIRE.md §6 over random graphs, including the n=0 and edgeless corners
// and chunk targets small enough to force many ADJ chunks (§4).
func TestRoundTripRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		n int
		p float64
	}{
		{0, 0}, {1, 0}, {2, 1}, {5, 0}, {17, 0.3}, {64, 0.1}, {257, 0.05}, {1000, 0.01},
	}
	for _, target := range []int{1, 16, DefaultChunkTarget} {
		for _, c := range cases {
			adj, m := randomGraph(rng, c.n, c.p)
			var buf bytes.Buffer
			enc := NewEncoder(&buf)
			enc.chunkTarget = target
			if err := enc.WriteGraph(c.n, adj); err != nil {
				t.Fatalf("n=%d target=%d WriteGraph: %v", c.n, target, err)
			}
			if err := enc.Close(); err != nil {
				t.Fatalf("n=%d target=%d Close: %v", c.n, target, err)
			}
			msg, err := Decode(&buf)
			if err != nil {
				t.Fatalf("n=%d target=%d Decode: %v", c.n, target, err)
			}
			if !msg.HasGraph || msg.N != c.n || msg.M != m {
				t.Fatalf("n=%d target=%d decoded n=%d m=%d, want n=%d m=%d", c.n, target, msg.N, msg.M, c.n, m)
			}
			if !adjEqual(msg.Adj, adj) {
				t.Fatalf("n=%d target=%d adjacency did not round-trip", c.n, target)
			}
			if buf.Len() != 0 {
				t.Fatalf("n=%d target=%d Decode left %d bytes unread", c.n, target, buf.Len())
			}
		}
	}
}

// TestStreamShapes exercises the WIRE.md §3 grammar: metadata-only
// streams, empty streams, and metadata + graph streams (§5.4).
func TestStreamShapes(t *testing.T) {
	doc := []byte(`{"realizable":true}`)

	t.Run("meta-only", func(t *testing.T) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.WriteJSONMeta(doc); err != nil {
			t.Fatalf("WriteJSONMeta: %v", err)
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		msg, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if msg.HasGraph || !bytes.Equal(msg.Meta, doc) {
			t.Fatalf("meta-only stream decoded to hasGraph=%v meta=%q", msg.HasGraph, msg.Meta)
		}
	})

	t.Run("empty", func(t *testing.T) {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		msg, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if msg.HasGraph || msg.Meta != nil {
			t.Fatalf("empty stream decoded to %+v", msg)
		}
	})

	t.Run("meta+graph", func(t *testing.T) {
		n, adj := goldenAdj()
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.WriteJSONMeta(doc); err != nil {
			t.Fatalf("WriteJSONMeta: %v", err)
		}
		if err := enc.WriteGraph(n, adj); err != nil {
			t.Fatalf("WriteGraph: %v", err)
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		msg, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(msg.Meta, doc) || !msg.HasGraph || !adjEqual(msg.Adj, adj) {
			t.Fatalf("meta+graph stream decoded to %+v", msg)
		}
	})
}

// TestDecodeConsumesExactly checks the WIRE.md §3 requirement that a
// consumer reads exactly the stream and leaves subsequent bytes unread.
func TestDecodeConsumesExactly(t *testing.T) {
	n, adj := goldenAdj()
	stream, err := EncodeGraph(n, adj)
	if err != nil {
		t.Fatal(err)
	}
	trailer := []byte("bytes after the END chunk belong to the container")
	r := bytes.NewReader(append(append([]byte{}, stream...), trailer...))
	if _, err := Decode(r); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	rest, _ := io.ReadAll(r)
	if !bytes.Equal(rest, trailer) {
		t.Fatalf("Decode consumed past END: %d trailing bytes left, want %d", len(rest), len(trailer))
	}
}

// TestEncoderStreamsBoundedChunks checks the WIRE.md §4 framing from the
// outside: a large graph becomes many independently CRC-valid frames, each
// payload near the configured target, and the Flush hook runs per frame.
func TestEncoderStreamsBoundedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj, _ := randomGraph(rng, 2000, 0.02)

	var buf bytes.Buffer
	flushes := 0
	enc := NewEncoder(&buf)
	enc.chunkTarget = 1 << 10
	enc.Flush = func() error { flushes++; return nil }
	if err := enc.WriteGraph(2000, adj); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Walk the raw frames (skipping the 5-byte header) the way a streaming
	// consumer would.
	r := bytes.NewReader(buf.Bytes()[headerSize:])
	chunks := 0
	for r.Len() > 0 {
		payload, err := readFrame(r, DefaultMaxChunkBytes)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		// One vertex block may overshoot the target; deg+deltas for one
		// vertex of a p=0.02 graph on n=2000 stays far under 1 KiB.
		if payload[0] == chunkAdj && len(payload) > enc.chunkTarget+512 {
			t.Fatalf("ADJ payload of %d bytes far exceeds the %d target", len(payload), enc.chunkTarget)
		}
		chunks++
	}
	if chunks < 5 {
		t.Fatalf("expected a multi-chunk stream at a 1 KiB target, got %d chunks", chunks)
	}
	if flushes != chunks+1 { // header push flushes once too
		t.Fatalf("Flush ran %d times for %d chunks + header", flushes, chunks)
	}
}

// TestEncoderCallOrder pins the encoder side of the WIRE.md §3 grammar:
// at most one JMETA before the graph section, at most one graph section,
// nothing after Close.
func TestEncoderCallOrder(t *testing.T) {
	doc := []byte(`{}`)
	n, adj := goldenAdj()

	enc := NewEncoder(io.Discard)
	if err := enc.WriteJSONMeta(nil); err == nil {
		t.Fatal("empty JMETA document accepted")
	}
	if err := enc.WriteJSONMeta(doc); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteJSONMeta(doc); err == nil {
		t.Fatal("second JMETA chunk accepted")
	}
	if err := enc.WriteGraph(n, adj); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteJSONMeta(doc); err == nil {
		t.Fatal("JMETA after the graph section accepted")
	}
	if err := enc.WriteGraph(n, adj); err == nil {
		t.Fatal("second graph section accepted")
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteGraph(n, adj); err == nil {
		t.Fatal("WriteGraph after Close accepted")
	}
	if err := enc.Close(); err != nil {
		t.Fatal("repeated Close must be a no-op, got error")
	}
}

// TestEncoderRejectsNonCanonical pins the WIRE.md §6 producer rule:
// unsorted, duplicate, or out-of-range adjacency is an encode error, not
// a malformed stream.
func TestEncoderRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name string
		n    int
		adj  [][]int
	}{
		{"unsorted", 3, [][]int{{2, 1}, {}, {}}},
		{"duplicate", 3, [][]int{{1, 1}, {}, {}}},
		{"out-of-range", 3, [][]int{{5}, {}, {}}},
		{"too-many-rows", 2, [][]int{{1}, {0}, {}}},
		{"negative-n", -1, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := EncodeGraph(c.n, c.adj); err == nil {
				t.Fatalf("EncodeGraph(%d, %v) accepted non-canonical input", c.n, c.adj)
			}
		})
	}
}

// corrupt returns the golden stream with one mutation applied.
func corrupt(t *testing.T, mutate func([]byte) []byte) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}
	return mutate(b)
}

// TestDecoderRejectsMalformed walks the WIRE.md §7 rejection list: every
// malformed stream decodes to an error wrapping ErrFormat, never a panic
// and never a silently wrong graph.
func TestDecoderRejectsMalformed(t *testing.T) {
	endFrame := func() []byte { return appendFrame(nil, []byte{chunkEnd}) }
	cases := []struct {
		name string
		in   func() []byte
	}{
		{"empty input", func() []byte { return nil }},
		{"truncated header", func() []byte { return []byte{'G', 'R', 'W'} }},
		{"bad magic", func() []byte {
			return corrupt(t, func(b []byte) []byte { b[0] = 'X'; return b })
		}},
		{"unsupported version", func() []byte {
			return corrupt(t, func(b []byte) []byte { b[4] = 99; return b })
		}},
		{"missing END", func() []byte {
			return corrupt(t, func(b []byte) []byte { return b[:len(b)-9] })
		}},
		{"truncated chunk payload", func() []byte {
			return corrupt(t, func(b []byte) []byte { return b[:12] })
		}},
		{"flipped payload bit", func() []byte {
			return corrupt(t, func(b []byte) []byte { b[14] ^= 0x40; return b })
		}},
		{"flipped CRC bit", func() []byte {
			return corrupt(t, func(b []byte) []byte { b[9] ^= 0x01; return b })
		}},
		{"zero-length chunk", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return append(hdr, 0, 0, 0, 0, 0, 0, 0, 0)
		}},
		{"unknown chunk type", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return append(appendFrame(hdr, []byte{0x7f}), endFrame()...)
		}},
		{"END with stray bytes", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return appendFrame(hdr, []byte{chunkEnd, 0})
		}},
		{"ADJ before META", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return append(appendFrame(hdr, []byte{chunkAdj, 0, 1, 0}), endFrame()...)
		}},
		{"second META", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 0, 0})
			s = appendFrame(s, []byte{chunkMeta, 0, 0})
			return append(s, endFrame()...)
		}},
		{"JMETA after graph", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 0, 0})
			s = appendFrame(s, []byte{chunkJMeta, '{', '}'})
			return append(s, endFrame()...)
		}},
		{"empty JMETA", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return append(appendFrame(hdr, []byte{chunkJMeta}), endFrame()...)
		}},
		{"m over simple-graph max", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return append(appendFrame(hdr, []byte{chunkMeta, 3, 4}), endFrame()...)
		}},
		{"META stray bytes", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			return append(appendFrame(hdr, []byte{chunkMeta, 0, 0, 0}), endFrame()...)
		}},
		{"ADJ ranges do not tile", func() []byte {
			// n=2, m=0 but the ADJ range starts at vertex 1.
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 2, 0})
			s = appendFrame(s, []byte{chunkAdj, 1, 1, 0})
			return append(s, endFrame()...)
		}},
		{"ADJ range past n", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 1, 0})
			s = appendFrame(s, []byte{chunkAdj, 0, 2, 0, 0})
			return append(s, endFrame()...)
		}},
		{"empty ADJ range", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 1, 0})
			s = appendFrame(s, []byte{chunkAdj, 0, 0})
			return append(s, endFrame()...)
		}},
		{"zero delta", func() []byte {
			// n=2, m=1, vertex 0 claims neighbor 0+0.
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 2, 1})
			s = appendFrame(s, []byte{chunkAdj, 0, 2, 1, 0, 0})
			return append(s, endFrame()...)
		}},
		{"endpoint past n", func() []byte {
			// n=2, m=1, vertex 0's delta reaches vertex 2.
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 2, 1})
			s = appendFrame(s, []byte{chunkAdj, 0, 2, 1, 2, 0})
			return append(s, endFrame()...)
		}},
		{"degree claim beyond chunk", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 2, 1})
			s = appendFrame(s, []byte{chunkAdj, 0, 2, 0x7f})
			return append(s, endFrame()...)
		}},
		{"edge count under declared m", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 2, 1})
			s = appendFrame(s, []byte{chunkAdj, 0, 2, 0, 0})
			return append(s, endFrame()...)
		}},
		{"vertex coverage incomplete", func() []byte {
			hdr := []byte{'G', 'R', 'W', 'F', Version}
			s := appendFrame(hdr, []byte{chunkMeta, 2, 0})
			s = appendFrame(s, []byte{chunkAdj, 0, 1, 0})
			return append(s, endFrame()...)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg, err := Decode(bytes.NewReader(c.in()))
			if err == nil {
				t.Fatalf("malformed stream decoded to %+v", msg)
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v does not wrap ErrFormat", err)
			}
		})
	}
}

// TestDecoderLimits pins the WIRE.md §7 resource bounds: oversized vertex
// counts and chunk payloads are rejected before allocation.
func TestDecoderLimits(t *testing.T) {
	t.Run("max nodes", func(t *testing.T) {
		hdr := []byte{'G', 'R', 'W', 'F', Version}
		s := appendFrame(hdr, append(uvarint([]byte{chunkMeta}, 1_000_000), 0))
		s = appendFrame(s, []byte{chunkEnd})
		_, err := decodeLimits(bytes.NewReader(s), limits{MaxNodes: 1000})
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("n over MaxNodes: got %v", err)
		}
	})
	t.Run("max chunk bytes", func(t *testing.T) {
		hdr := []byte{'G', 'R', 'W', 'F', Version}
		big := make([]byte, 100)
		big[0] = chunkJMeta
		s := appendFrame(hdr, big)
		_, err := decodeLimits(bytes.NewReader(s), limits{MaxChunkBytes: 64})
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("chunk over MaxChunkBytes: got %v", err)
		}
	})
}

// forwardRandomGraph builds a simple graph on n vertices by giving each
// vertex k random forward neighbors (average degree ≈ 2k): the service's
// typical density with *no* index locality, so any compression it shows is
// a floor for real realizations, whose deltas are far more clustered. The
// construction keeps every adjacency list sorted: backward neighbors arrive
// in ascending outer-loop order, then the forward ones are appended sorted.
func forwardRandomGraph(rng *rand.Rand, n, k int) ([][]int, [][2]int) {
	adj := make([][]int, n)
	var edges [][2]int
	fwd := make([]int, 0, k)
	for u := 0; u < n; u++ {
		span := n - u - 1
		want := k
		if span < want {
			want = span
		}
		fwd = fwd[:0]
		seen := map[int]bool{}
		for len(seen) < want {
			v := u + 1 + rng.Intn(span)
			if !seen[v] {
				seen[v] = true
				fwd = append(fwd, v)
			}
		}
		sort.Ints(fwd)
		for _, v := range fwd {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
			edges = append(edges, [2]int{u, v})
		}
	}
	return adj, edges
}

// TestWireCompressionAtScale is the acceptance bar from the issue: an
// n=65536 graph at realization density must be at least 5x smaller as
// graphwire than as a JSON edge list (WIRE.md §1, §6). The graph here is
// adversarial — random endpoints, so deltas are as wide as the density
// allows; actual engine output compresses better (see the README table).
func TestWireCompressionAtScale(t *testing.T) {
	const n = 65536
	adj, edges := forwardRandomGraph(rand.New(rand.NewSource(65536)), n, 4)
	wireBytes, err := EncodeGraph(n, adj)
	if err != nil {
		t.Fatalf("EncodeGraph: %v", err)
	}
	jsonBytes, err := json.Marshal(edges)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(jsonBytes)) / float64(len(wireBytes))
	t.Logf("n=%d m=%d: JSON %d bytes, wire %d bytes, ratio %.1fx", n, len(edges), len(jsonBytes), len(wireBytes), ratio)
	if ratio < 5 {
		t.Fatalf("wire is only %.2fx smaller than JSON at n=%d, want ≥ 5x", ratio, n)
	}

	msg, err := Decode(bytes.NewReader(wireBytes))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !adjEqual(msg.Adj, adj) {
		t.Fatal("n=65536 graph did not round-trip")
	}
}

// TestSpecSectionsResolve keeps the code ↔ spec links honest: every
// "WIRE.md §x" citation in this package must name a section heading that
// actually exists in WIRE.md.
func TestSpecSectionsResolve(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("..", "..", "WIRE.md"))
	if err != nil {
		t.Fatalf("reading WIRE.md: %v", err)
	}
	sections := map[string]bool{}
	heading := regexp.MustCompile(`(?m)^#{2,3}\s+(\d+(?:\.\d+)?)[.\s]`)
	for _, m := range heading.FindAllStringSubmatch(string(spec), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("no numbered section headings found in WIRE.md")
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`WIRE\.md\s+§(\d+(?:\.\d+)?)`)
	cited := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
			cited++
			if !sections[m[1]] {
				t.Errorf("%s cites WIRE.md §%s, but WIRE.md has no such section", f, m[1])
			}
		}
	}
	if cited == 0 {
		t.Fatal("no WIRE.md § citations found in internal/wire — the spec links are gone")
	}
}

// BenchmarkWireEncode and BenchmarkWireDecode are in the benchgate set
// (Makefile bench-compare): a regression in codec throughput fails CI the
// same way an engine regression does.
func BenchmarkWireEncode(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		adj, _ := forwardRandomGraph(rand.New(rand.NewSource(int64(n))), n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeGraph(n, adj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		adj, _ := forwardRandomGraph(rand.New(rand.NewSource(int64(n))), n, 4)
		stream, err := EncodeGraph(n, adj)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(bytes.NewReader(stream)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
