package graph

import "math"

// EdgeConnectivity returns the maximum number of pairwise edge-disjoint
// paths between s and t — by Menger's theorem, the minimum number of edges
// whose removal disconnects s from t. It runs Dinic's algorithm on the
// bidirected unit-capacity network, O(m·√m) for unit capacities, which is
// ample at verification scale. To ask about many pairs, build the network
// once with Cuts.
func (g *Graph) EdgeConnectivity(s, t int) int {
	return g.Cuts().EdgeConnectivity(s, t, math.MaxInt)
}

// Cuts answers edge-connectivity queries on one graph from one flow
// network, built once and reset before each query: a unit-capacity
// max-flow solver over the bidirected version of the graph, in which each
// undirected edge {u,v} becomes arcs u→v and v→u with capacity 1 each,
// each serving as the other's residual arc. This is the standard reduction
// for undirected edge connectivity.
type Cuts struct {
	head  []int32 // head[v]: first arc index of v, -1 terminated chains
	next  []int32 // next arc in v's chain
	to    []int32
	cap   []int8
	level []int32
	iter  []int32
	queue []int32
}

// Cuts builds g's flow network. g must not change while the Cuts is in use.
func (g *Graph) Cuts() *Cuts {
	c := &Cuts{
		head:  make([]int32, g.n),
		next:  make([]int32, 0, 2*g.m),
		to:    make([]int32, 0, 2*g.m),
		level: make([]int32, g.n),
		iter:  make([]int32, g.n),
		queue: make([]int32, 0, g.n),
	}
	for i := range c.head {
		c.head[i] = -1
	}
	addArc := func(u, v int32) {
		c.next = append(c.next, c.head[u])
		c.head[u] = int32(len(c.to))
		c.to = append(c.to, v)
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
	c.cap = make([]int8, len(c.to)) // every query sets each capacity to 1
	return c
}

// EdgeConnectivity returns min(λ(s,t), limit): the flow stops once it
// reaches limit, so a threshold check costs at most limit augmenting paths
// and never the final search that proves a flow maximum. An answer below
// limit is λ(s,t) exactly.
func (c *Cuts) EdgeConnectivity(s, t, limit int) int {
	if s == t {
		panic("graph: EdgeConnectivity with s == t")
	}
	for i := range c.cap {
		c.cap[i] = 1
	}
	flow := 0
	for flow < limit && c.bfs(s, t) {
		copy(c.iter, c.head)
		for flow < limit && c.dfs(int32(s), int32(t)) {
			flow++
		}
	}
	return flow
}

// bfs levels the residual network from s and reports whether t is reached.
// It stops at t's level: no vertex at or past it lies on a shortest path.
func (c *Cuts) bfs(s, t int) bool {
	for i := range c.level {
		c.level[i] = -1
	}
	c.level[s] = 0
	queue := append(c.queue[:0], int32(s))
	for head := 0; head < len(queue) && c.level[t] == -1; head++ {
		u := queue[head]
		for e := c.head[u]; e != -1; e = c.next[e] {
			if c.cap[e] > 0 && c.level[c.to[e]] == -1 {
				c.level[c.to[e]] = c.level[u] + 1
				queue = append(queue, c.to[e])
			}
		}
	}
	c.queue = queue
	return c.level[t] != -1
}

func (c *Cuts) dfs(u, t int32) bool {
	if u == t {
		return true
	}
	for ; c.iter[u] != -1; c.iter[u] = c.next[c.iter[u]] {
		e := c.iter[u]
		v := c.to[e]
		if c.cap[e] > 0 && c.level[v] == c.level[u]+1 && c.dfs(v, t) {
			c.cap[e]--
			c.cap[e^1]++
			return true
		}
	}
	return false
}
