package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"graphrealize"
	"graphrealize/internal/wire"
)

// check.go holds the output checks. Every fresh result is checked against
// the paper's definitions; a hot key is checked in full once, at warm-up,
// and every later answer for it must carry the same edge list.

// realizeDoc is the JSON realization response (and the graphwire JMETA
// document), minus the fields the checks do not read.
type realizeDoc struct {
	Kind   string          `json:"kind"`
	N      int             `json:"n"`
	M      int             `json:"m"`
	Edges  json.RawMessage `json:"edges"`
	Stats  respStats       `json:"stats"`
	Cached bool            `json:"cached"`
}

type respStats struct {
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	Phases   int   `json:"phases"`
}

// result is one decoded response: its document and its graph's adjacency
// (nil for a hot JSON answer, whose edge list is compared as bytes).
type result struct {
	doc realizeDoc
	adj [][]int
}

// reference is a hot key's checked warm-up answer.
type reference struct {
	n, m  int
	edges []byte  // JSON edge list, as the server wrote it
	adj   [][]int // checked adjacency
}

// decodeWire decodes a graphwire realization response.
func decodeWire(body []byte, out *result) error {
	msg, err := wire.Decode(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if msg.Meta == nil || !msg.HasGraph {
		return errors.New("graphwire response without metadata or graph")
	}
	out.doc = realizeDoc{}
	if err := json.Unmarshal(msg.Meta, &out.doc); err != nil {
		return fmt.Errorf("graphwire metadata: %w", err)
	}
	if msg.N != out.doc.N || msg.M != out.doc.M {
		return fmt.Errorf("graph section n=%d m=%d, metadata n=%d m=%d", msg.N, msg.M, out.doc.N, out.doc.M)
	}
	out.adj = msg.Adj
	return nil
}

// decodeJSON decodes a JSON realization response in full, building the
// adjacency from its edge list.
func decodeJSON(body []byte, out *result) error {
	out.doc = realizeDoc{}
	if err := json.Unmarshal(body, &out.doc); err != nil {
		return err
	}
	var edges [][2]int
	if err := json.Unmarshal(out.doc.Edges, &edges); err != nil {
		return fmt.Errorf("edge list: %w", err)
	}
	adj, err := adjacency(out.doc.N, edges)
	out.adj = adj
	return err
}

var edgesField = []byte(`"edges":`)

// decodeHotJSON decodes a JSON answer for a hot key without re-parsing its
// edge list: the list must be byte-identical to the reference's, and the
// rest of the document must decode with the list cut out. Together these
// prove the whole body decodes to the reference graph, at a cost that keeps
// the client from competing with the server it measures.
func decodeHotJSON(body []byte, ref *reference, out *result) error {
	at := bytes.Index(body, edgesField)
	if at < 0 {
		return errors.New("response has no edge list")
	}
	list := body[at+len(edgesField):]
	if !bytes.HasPrefix(list, ref.edges) {
		return errors.New("edge list differs from the key's first answer")
	}
	rest := append(append(append(make([]byte, 0, 256), body[:at]...), `"edges":null`...), list[len(ref.edges):]...)
	out.doc = realizeDoc{}
	out.adj = nil
	return json.Unmarshal(rest, &out.doc)
}

// adjacency builds a sorted adjacency from a (u < v) edge list on n
// vertices; checkResult then verifies the graph is simple.
func adjacency(n int, edges [][2]int) ([][]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("n=%d", n)
	}
	adj := make([][]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v >= n || u >= v {
			return nil, fmt.Errorf("edge (%d,%d) is not a (u<v) pair on %d vertices", u, v, n)
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, nb := range adj {
		slices.Sort(nb)
	}
	return adj, nil
}

// checkSimple verifies a symmetric adjacency with sorted, duplicate-free,
// loop-free neighbour lists.
func checkSimple(adj [][]int) error {
	for u, nb := range adj {
		for i, v := range nb {
			if v < 0 || v >= len(adj) || v == u {
				return fmt.Errorf("vertex %d has neighbour %d", u, v)
			}
			if i > 0 && nb[i-1] >= v {
				return fmt.Errorf("vertex %d: neighbours unsorted or repeated at %d", u, v)
			}
			if _, ok := slices.BinarySearch(adj[v], u); !ok {
				return fmt.Errorf("edge (%d,%d) is not symmetric", u, v)
			}
		}
	}
	return nil
}

func edgeCount(adj [][]int) int {
	m := 0
	for _, nb := range adj {
		m += len(nb)
	}
	return m / 2
}

// checkResult verifies one answer against the paper's definitions for the
// request that produced it.
func checkResult(o op, r *result) error {
	adj, seq := r.adj, o.seq
	if r.doc.N != len(seq) || len(adj) != len(seq) {
		return fmt.Errorf("%s: n=%d for a sequence of length %d", o.kind, r.doc.N, len(seq))
	}
	if err := checkSimple(adj); err != nil {
		return fmt.Errorf("%s: %w", o.kind, err)
	}
	m := edgeCount(adj)
	if m != r.doc.M {
		return fmt.Errorf("%s: m=%d but the graph has %d edges", o.kind, r.doc.M, m)
	}
	switch {
	case o.kind.isDegree():
		return degreesEqual(o.kind, adj, seq)
	case o.kind.isTree():
		if m != len(seq)-1 {
			return fmt.Errorf("%s: %d edges on %d vertices", o.kind, m, len(seq))
		}
		if err := degreesEqual(o.kind, adj, seq); err != nil {
			return err
		}
		far, _ := farthest(adj, 0)
		if far < 0 {
			return fmt.Errorf("%s: not connected", o.kind)
		}
		if o.kind == treeMinDiam {
			_, diam := farthest(adj, far)
			if want := graphrealize.MinTreeDiameter(seq); diam != want {
				return fmt.Errorf("%s: diameter %d, minimum is %d", o.kind, diam, want)
			}
		}
	default:
		sum := 0
		for v, rho := range seq {
			sum += rho
			if len(adj[v]) < rho {
				return fmt.Errorf("%s: deg(%d)=%d below ρ=%d", o.kind, v, len(adj[v]), rho)
			}
		}
		if m > sum {
			return fmt.Errorf("%s: m=%d exceeds Σρ=%d", o.kind, m, sum)
		}
	}
	return nil
}

func degreesEqual(k kind, adj [][]int, seq []int) error {
	for v, d := range seq {
		if len(adj[v]) != d {
			return fmt.Errorf("%s: deg(%d)=%d, requested %d", k, v, len(adj[v]), d)
		}
	}
	return nil
}

// farthest runs a BFS from src and returns a vertex at maximum distance and
// that distance, or (-1, 0) when some vertex is unreachable.
func farthest(adj [][]int, src int) (int, int) {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	far := src
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] > dist[far] {
			far = u
		}
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for _, d := range dist {
		if d < 0 {
			return -1, 0
		}
	}
	return far, dist[far]
}

// checkPairs verifies λ(u,v) ≥ min(ρu, ρv) on connectivity results, at
// pairs drawn from the workload seed, and returns how many pairs failed.
func checkPairs(seed int64, graphs []kept, pairs int) (failed int, err error) {
	for gi, c := range graphs {
		r := opRand(seed, streamCheck, gi)
		g := &graphrealize.Graph{N: len(c.adj), Adj: c.adj}
		for range pairs {
			u := r.IntN(g.N)
			v := r.IntN(g.N - 1)
			if v >= u {
				v++
			}
			if lam, want := g.EdgeConnectivity(u, v), min(c.o.seq[u], c.o.seq[v]); lam < want {
				failed++
				err = fmt.Errorf("λ(%d,%d)=%d below min(ρ)=%d", u, v, lam, want)
			}
		}
	}
	return failed, err
}
