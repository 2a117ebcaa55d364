package ncc

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
	// Nodes maps each ID to its results.
	Nodes map[ID]*NodeResult
	// Unrealizable is true if any node declared the instance unrealizable.
	Unrealizable bool
}

// Output returns the named output of node id, or (0, false) if absent.
func (t *Trace) Output(id ID, key string) (int64, bool) {
	nr, ok := t.Nodes[id]
	if !ok || nr.Outputs == nil {
		return 0, false
	}
	v, ok := nr.Outputs[key]
	return v, ok
}

// MaxOutput returns the maximum of the named output over all nodes that
// declared it, and whether any did. Aggregating over nodes (rather than
// probing a fixed position) keeps derived statistics independent of which
// node happens to sit where on the knowledge path.
func (t *Trace) MaxOutput(key string) (int64, bool) {
	var best int64
	found := false
	//grlint:allow D001 -- order-independent max fold over final results
	for _, nr := range t.Nodes {
		if nr.Outputs == nil {
			continue
		}
		v, ok := nr.Outputs[key]
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

// EdgeSet returns the union of all stored edges as canonical (lo,hi) ID pairs.
// Duplicate storage (both endpoints of an explicit edge) collapses to one set
// entry; self-loops are impossible by construction (Send forbids them and
// AddEdge rejects them).
func (t *Trace) EdgeSet() map[[2]ID]struct{} {
	total := 0
	//grlint:allow D001 -- order-independent sum for a capacity hint
	for _, nr := range t.Nodes {
		total += len(nr.Neighbors)
	}
	edges := make(map[[2]ID]struct{}, total)
	//grlint:allow D001 -- builds an unordered set; insertion order is invisible
	for id, nr := range t.Nodes {
		for _, p := range nr.Neighbors {
			a, b := id, p
			if a > b {
				a, b = b, a
			}
			edges[[2]ID{a, b}] = struct{}{}
		}
	}
	return edges
}

// buildTrace assembles the run's Trace from the final node states and the
// accumulated metrics.
func (s *Sim) buildTrace() *Trace {
	s.met.Rounds = s.round
	t := &Trace{
		Metrics: s.met,
		IDs:     s.ids,
		Nodes:   make(map[ID]*NodeResult, s.n),
	}
	// One backing array for all per-node results instead of n small heap
	// objects: at large n the per-node allocations dominated buildTrace.
	results := make([]NodeResult, s.n)
	for i, nd := range s.nodes {
		results[i] = NodeResult{ID: nd.id, Neighbors: nd.neighbors, Outputs: nd.outputs}
		t.Nodes[nd.id] = &results[i]
		if nd.unrealizable {
			t.Unrealizable = true
		}
	}
	return t
}
