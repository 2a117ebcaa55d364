package graph

// EdgeConnectivity returns the maximum number of pairwise edge-disjoint
// paths between s and t — by Menger's theorem, the minimum number of edges
// whose removal disconnects s from t. It runs Dinic's algorithm on the
// bidirected unit-capacity network, O(m·√m) for unit capacities, which is
// ample at verification scale.
func (g *Graph) EdgeConnectivity(s, t int) int {
	if s == t {
		panic("graph: EdgeConnectivity with s == t")
	}
	d := newDinic(g)
	return d.maxFlow(s, t)
}

// dinic is a unit-capacity max-flow solver over the bidirected version of an
// undirected graph: each undirected edge {u,v} becomes arcs u→v and v→u with
// capacity 1 each, each serving as the other's residual arc. This is the
// standard reduction for undirected edge connectivity.
type dinic struct {
	n     int
	head  []int32 // head[v]: first arc index of v, -1 terminated chains
	next  []int32 // next arc in v's chain
	to    []int32
	cap   []int8
	level []int32
	iter  []int32
}

func newDinic(g *Graph) *dinic {
	d := &dinic{
		n:     g.n,
		head:  make([]int32, g.n),
		next:  make([]int32, 0, 2*g.m),
		to:    make([]int32, 0, 2*g.m),
		cap:   make([]int8, 0, 2*g.m),
		level: make([]int32, g.n),
		iter:  make([]int32, g.n),
	}
	for i := range d.head {
		d.head[i] = -1
	}
	addArc := func(u, v int32) {
		d.next = append(d.next, d.head[u])
		d.head[u] = int32(len(d.to))
		d.to = append(d.to, v)
		d.cap = append(d.cap, 1)
	}
	for u := 0; u < g.n; u++ {
		for _, w := range g.adj[u] {
			if w > u {
				// Paired arcs: indices 2k and 2k+1 are mutual residuals.
				addArc(int32(u), int32(w))
				addArc(int32(w), int32(u))
			}
		}
	}
	return d
}

func (d *dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := d.head[u]; e != -1; e = d.next[e] {
			if d.cap[e] > 0 && d.level[d.to[e]] == -1 {
				d.level[d.to[e]] = d.level[u] + 1
				queue = append(queue, d.to[e])
			}
		}
	}
	return d.level[t] != -1
}

func (d *dinic) dfs(u, t int32) bool {
	if u == t {
		return true
	}
	for ; d.iter[u] != -1; d.iter[u] = d.next[d.iter[u]] {
		e := d.iter[u]
		v := d.to[e]
		if d.cap[e] > 0 && d.level[v] == d.level[u]+1 && d.dfs(v, t) {
			d.cap[e]--
			d.cap[e^1]++
			return true
		}
	}
	return false
}

func (d *dinic) maxFlow(s, t int) int {
	flow := 0
	for d.bfs(s, t) {
		copy(d.iter, d.head)
		for d.dfs(int32(s), int32(t)) {
			flow++
		}
	}
	return flow
}
