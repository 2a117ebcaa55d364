// Package graph provides the plain (centralized) graph substrate used to
// verify distributed realizations: adjacency storage, BFS, tree and diameter
// utilities, and one max-flow routine, Cuts, for edge-connectivity (Menger)
// checks. Vertices are dense indices 0..n-1: a realized overlay's Gk
// positions, as ncc.Trace.Adjacency lists them and FromAdj views them.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1 stored as adjacency
// lists. Use New and AddEdge to build one; AddEdge rejects self-loops and
// ignores duplicate edges so that a Graph is always simple. FromAdj wraps
// lists built elsewhere.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// FromAdj wraps adj, the adjacency lists of a simple undirected graph on
// vertices 0..len(adj)-1 (each edge listed at both endpoints), as a
// read-only view in O(n): the lists are shared, not copied, so neither the
// caller nor AddEdge may modify them while the view is in use.
func FromAdj(adj [][]int) *Graph {
	m := 0
	for _, a := range adj {
		m += len(a)
	}
	return &Graph{n: len(adj), adj: adj, m: m / 2}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u,v}. It returns an error for
// out-of-range endpoints or self-loops, and silently ignores duplicates.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return nil
}

// HasEdge reports whether {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, u, v = g.adj[v], v, u
	}
	for _, w := range a {
		if w == v {
			return true
		}
	}
	return false
}

// Degrees returns the degree of every vertex.
func (g *Graph) Degrees() []int {
	d := make([]int, g.n)
	for v := range g.adj {
		d[v] = len(g.adj[v])
	}
	return d
}

// Adj returns the adjacency lists, indexed by vertex (shared, not copied).
func (g *Graph) Adj() [][]int { return g.adj }

// Edges returns all edges as canonical (u<v) pairs, sorted.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.adj[u] {
			if w > u {
				es = append(es, [2]int{u, w})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}
