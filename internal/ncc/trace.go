package ncc

import "slices"

// NodeResult is the per-node outcome of a run.
type NodeResult struct {
	ID ID
	// Neighbors is the node's stored overlay adjacency: every ID the node
	// recorded via AddEdge. Implicit realizations store each edge at one
	// endpoint; explicit realizations at both.
	Neighbors []ID
	// Outputs holds named scalar outputs declared via SetOutput.
	Outputs map[string]int64
}

// Trace is the complete result of Sim.RunProgram.
type Trace struct {
	Metrics Metrics
	// IDs lists node IDs in Gk (initial path) order: IDs[0] is the head.
	IDs []ID
	// Nodes holds each node's results in Gk order: Nodes[i].ID == IDs[i].
	Nodes []NodeResult
	// Unrealizable is true if any node declared the instance unrealizable.
	Unrealizable bool

	index idTable // the Sim's ID → Gk position table, shared
}

// Output returns the named output of node id, or (0, false) if absent.
func (t *Trace) Output(id ID, key string) (int64, bool) {
	i, ok := t.index.lookup(id)
	if !ok {
		return 0, false
	}
	v, ok := t.Nodes[i].Outputs[key]
	return v, ok
}

// MaxOutput returns the maximum of the named output over all nodes that
// declared it, and whether any did. Aggregating over nodes (rather than
// probing a fixed position) keeps derived statistics independent of which
// node happens to sit where on the knowledge path.
func (t *Trace) MaxOutput(key string) (int64, bool) {
	var best int64
	found := false
	for i := range t.Nodes {
		v, ok := t.Nodes[i].Outputs[key]
		if !ok {
			continue
		}
		if !found || v > best {
			best = v
		}
		found = true
	}
	return best, found
}

// Adjacency returns the realized overlay: the union of every node's stored
// edges as adjacency lists indexed by Gk position, which is also the input
// index. Each list is ascending and duplicate-free, so an edge stored at
// both endpoints (explicit storage) or twice at one appears once; an
// isolated vertex's list is nil. Self-loops are impossible by construction
// (Send forbids them and AddEdge rejects them). The lists share one backing
// array, each capped at its length, so an append to one never writes into
// another.
func (t *Trace) Adjacency() [][]int {
	stored := 0
	for i := range t.Nodes {
		stored += len(t.Nodes[i].Neighbors)
	}
	// Each edge as one (lo, hi) key: sorting the keys orders the edges by
	// their lower endpoint, then their upper one.
	pairs := make([]uint64, 0, stored)
	for i := range t.Nodes {
		for _, p := range t.Nodes[i].Neighbors {
			j, _ := t.index.lookup(p)
			lo, hi := min(i, j), max(i, j)
			pairs = append(pairs, uint64(lo)<<32|uint64(hi))
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	deg := make([]int, len(t.Nodes))
	for _, e := range pairs {
		deg[e>>32]++
		deg[uint32(e)]++
	}
	adj := make([][]int, len(t.Nodes))
	backing := make([]int, 2*len(pairs))
	for v, d := range deg {
		if d > 0 {
			adj[v], backing = backing[:0:d], backing[d:]
		}
	}
	// In key order, v first receives its lower neighbours in ascending
	// order, then its higher ones: every list comes out sorted.
	for _, e := range pairs {
		lo, hi := int(e>>32), int(uint32(e))
		adj[lo] = append(adj[lo], hi)
		adj[hi] = append(adj[hi], lo)
	}
	return adj
}

// buildTrace assembles the run's Trace from the final node states and the
// accumulated metrics.
func (s *Sim) buildTrace() *Trace {
	s.met.Rounds = s.round
	t := &Trace{
		Metrics: s.met,
		IDs:     s.ids,
		Nodes:   make([]NodeResult, s.n),
		index:   s.index,
	}
	for i, nd := range s.nodes {
		t.Nodes[i] = NodeResult{ID: nd.id, Neighbors: nd.neighbors, Outputs: nd.outputs}
		if nd.unrealizable {
			t.Unrealizable = true
		}
	}
	return t
}
