package graph

import (
	"math"
	"slices"
)

// EdgeConnectivity returns λ(s,t): the most edge-disjoint s–t paths, by
// Menger's theorem the fewest edges whose removal disconnects s from t.
func (g *Graph) EdgeConnectivity(s, t int) int {
	c := g.Cuts()
	c.AddSink(t)
	return c.Flow(s, math.MaxInt)
}

// Cuts answers edge-connectivity queries λ(s,T) from a source s to a sink set
// T that only grows, on one flow network: each undirected edge {u,v} becomes
// arcs u→v and v→u of capacity 1, each the other's residual arc. T acts as
// one contracted vertex: into[v] counts v's residual arcs into T.
type Cuts struct {
	start []int32 // v's arcs are start[v] to start[v+1]-1
	to    []int32
	rev   []int32 // rev[e]: the arc opposite e
	flow  []int8  // in {-1, 0, 1}; e has residual capacity while flow[e] < 1
	sink  []bool
	into  []int32
	via   []int32  // via[v]: the arc by which a search reached v; -1 at s
	mark  []uint64 // mark[v] == stamp: v is s or reached since the last augmentation
	stamp uint64
	queue []int32
	log   []int32 // arcs the query pushed flow along, to undo
}

// Cuts builds g's flow network with an empty sink set. g must not change
// while the Cuts is in use.
func (g *Graph) Cuts() *Cuts {
	c := &Cuts{
		start: make([]int32, g.n+1),
		to:    make([]int32, 2*g.m),
		rev:   make([]int32, 2*g.m),
		flow:  make([]int8, 2*g.m),
		sink:  make([]bool, g.n),
		into:  make([]int32, g.n),
		via:   make([]int32, g.n),
		mark:  make([]uint64, g.n),
	}
	for v, a := range g.adj {
		c.start[v+1] = c.start[v] + int32(len(a))
	}
	free := slices.Clone(c.start[:g.n])
	for u, a := range g.adj {
		for _, w := range a {
			if w > u {
				e, f := free[u], free[w]
				c.to[e], c.rev[e], c.to[f], c.rev[f] = int32(w), f, int32(u), e
				free[u], free[w] = e+1, f+1
			}
		}
	}
	return c
}

// AddSink adds t, not yet a sink, to the sink set.
func (c *Cuts) AddSink(t int) {
	c.sink[t] = true
	for e := c.start[t]; e < c.start[t+1]; e++ {
		c.into[c.to[e]]++
	}
}

// Flow returns min(λ(s,T), limit) for s outside the sink set T. It makes one
// pass over s's arcs, sending at most one unit along each through a search
// from its head. A failed search leaves a set of vertices no later path can
// enter, so its marks stay until the next augmentation and a pass that finds
// nothing costs O(m). Stopping at limit spares a threshold check the search
// that proves a flow maximum; an answer below limit is λ(s,T) exactly.
func (c *Cuts) Flow(s, limit int) int {
	if c.sink[s] {
		panic("graph: Flow from a sink")
	}
	c.via[s] = -1
	c.stamp++
	flow := 0
	for a := c.start[s]; a < c.start[s+1] && flow < limit; a++ {
		c.mark[s] = c.stamp
		w, e := c.to[a], a
		c.via[w] = a
		if !c.sink[w] {
			v := c.search(w)
			if v < 0 {
				continue
			}
			for e = c.start[v]; c.flow[e] == 1 || !c.sink[c.to[e]]; {
				e++
			}
		}
		c.augment(e)
		flow++
	}
	c.undo()
	return flow
}

// search runs a residual BFS from w that stops at the first vertex it
// discovers with a residual arc into T, and returns it, or -1.
func (c *Cuts) search(w int32) int32 {
	c.mark[w] = c.stamp
	if c.into[w] > 0 {
		return w
	}
	c.queue = append(c.queue[:0], w)
	for i := 0; i < len(c.queue); i++ {
		// into[u] == 0, so u's arcs into T are all saturated.
		u := c.queue[i]
		for e := c.start[u]; e < c.start[u+1]; e++ {
			if v := c.to[e]; c.flow[e] < 1 && c.mark[v] != c.stamp {
				c.mark[v], c.via[v] = c.stamp, e
				if c.into[v] > 0 {
					return v
				}
				c.queue = append(c.queue, v)
			}
		}
	}
	return -1
}

// augment pushes one unit along e, an arc into T, and back along the search
// path that reached its tail, and forgets every mark.
func (c *Cuts) augment(e int32) {
	c.stamp++
	c.into[c.to[c.rev[e]]]--
	for ; e >= 0; e = c.via[c.to[c.rev[e]]] {
		c.flow[e]++
		c.flow[c.rev[e]]--
		c.log = append(c.log, e)
	}
}

// undo removes the query's flow.
func (c *Cuts) undo() {
	for _, e := range c.log {
		if c.flow[e] == 1 && c.sink[c.to[e]] {
			c.into[c.to[c.rev[e]]]++
		}
		c.flow[e], c.flow[c.rev[e]] = 0, 0
	}
	c.log = c.log[:0]
}
