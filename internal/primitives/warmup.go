package primitives

import "graphrealize/internal/ncc"

// WarmTree is a node's view of the warm-up balanced binary tree of §3.1.1
// (Figure 1). Unlike TBFS it is not a search tree: it is built by the simple
// odd/even recursive decomposition.
type WarmTree struct {
	IsRoot      bool
	Parent      ncc.ID
	Left, Right ncc.ID
	Depth       int // iteration at which the node was placed
}

// BuildWarmupTree builds the warm-up balanced binary tree over an
// undirected path and hands it to k: in every iteration, the leftmost node r
// of each live path takes its immediate neighbor a as left child and a's
// other neighbor b as right child, removes itself, and the remaining path
// splits into the odd- and even-position paths headed by a and b. Paths halve
// each iteration, so ⌈log₂ n⌉+1 iterations suffice.
//
// Rounds: exactly 3·(⌈log₂ n⌉ + 1) from the caller's current round (three
// lockstep rounds per iteration: link exchange, claims, link update).
func BuildWarmupTree(nd *ncc.Node, p Path, k func(WarmTree) ncc.Op) ncc.Op {
	t := WarmTree{Parent: ncc.None, Left: ncc.None, Right: ncc.None}
	t.IsRoot = p.IsHead()
	pred, succ := p.Pred, p.Succ
	placed := false
	iters := ncc.CeilLog2(nd.N()) + 1
	var iter func(it int) ncc.Op
	iter = func(it int) ncc.Op {
		if it == iters {
			return k(t)
		}
		// Round 1: exchange grand links within the current path.
		if !placed && succ != ncc.None && pred != ncc.None {
			nd.Send(succ, ncc.Message{Kind: kWGrandPred}.WithIDs(pred))
			nd.Send(pred, ncc.Message{Kind: kWGrandSucc}.WithIDs(succ))
		}
		return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			gpred, gsucc := ncc.None, ncc.None
			for _, m := range w.Msgs {
				switch m.Kind {
				case kWGrandPred:
					gpred = m.IDs()[0]
				case kWGrandSucc:
					gsucc = m.IDs()[0]
				}
			}
			// Round 2: leftmost nodes claim their children and leave the path.
			if !placed && pred == ncc.None {
				t.Depth = it
				placed = true
				if succ != ncc.None {
					nd.Send(succ, ncc.Message{Kind: kWClaim, A: 0})
					t.Left = succ
				}
				if gsucc != ncc.None {
					nd.Send(gsucc, ncc.Message{Kind: kWClaim, A: 1})
					t.Right = gsucc
				}
				pred, succ = ncc.None, ncc.None
			}
			return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
				// Round 3: apply claims and switch to the odd/even sub-path links.
				if !placed {
					newPred, newSucc := gpred, gsucc
					for _, m := range w.Msgs {
						if m.Kind == kWClaim {
							t.Parent = m.Src
							newPred = ncc.None // the claimant was our (grand-)predecessor
						}
					}
					pred, succ = newPred, newSucc
				}
				return ncc.Next(ncc.ContFunc(func(*ncc.Node, ncc.Wake) ncc.Op { return iter(it + 1) }))
			}))
		}))
	}
	return iter(0)
}
