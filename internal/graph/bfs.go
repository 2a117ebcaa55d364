package graph

// BFS returns the distance (in edges) from src to every vertex, with -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (vacuously true for n≤1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from v, or -1 if some vertex
// is unreachable.
func (g *Graph) Eccentricity(v int) int {
	ecc := 0
	for _, d := range g.BFS(v) {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter via all-pairs BFS (O(n·m)); it returns
// -1 for disconnected graphs. Intended for verification at test scale.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// IsTree reports whether g is a tree: connected with exactly n-1 edges.
func (g *Graph) IsTree() bool {
	if g.n == 0 {
		return false
	}
	return g.m == g.n-1 && g.Connected()
}

// TreeDiameter computes the diameter of a tree with two BFS sweeps. It panics
// if g is not a tree (the double-sweep argument needs acyclicity).
func (g *Graph) TreeDiameter() int {
	if !g.IsTree() {
		panic("graph: TreeDiameter on non-tree")
	}
	if g.n == 1 {
		return 0
	}
	d0 := g.BFS(0)
	far := 0
	for v, d := range d0 {
		if d > d0[far] {
			far = v
		}
	}
	d1 := g.BFS(far)
	diam := 0
	for _, d := range d1 {
		if d > diam {
			diam = d
		}
	}
	return diam
}
