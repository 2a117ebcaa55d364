// Package primitives implements the structural primitives of §3.1 of
// "Distributed Graph Realizations": converting the directed knowledge path
// Gk into an undirected path, building the level structure L (distance-
// doubling links), the controlled BFS that turns L into a balanced binary
// search tree TBFS (Theorem 1, Figure 2), inorder annotation that gives every
// node its position in the path (Corollary 2), and the warm-up balanced
// binary tree of Figure 1.
//
// Every primitive is written in lockstep style: it consumes a number of
// rounds that is a deterministic function of n (via SyncAtStep barriers), so
// primitives compose sequentially without extra coordination, and round
// metrics are reproducible.
//
// Every primitive is written in the resumable step form of package ncc: the
// XxxStep function performs the current round's compute slice and returns an
// ncc.Op whose continuation eventually invokes k with the result, so
// primitives compose by nesting continuations.
package primitives

import (
	"fmt"

	"graphrealize/internal/ncc"
)

// Message kinds used by this package (0x10–0x2F block; see DESIGN.md).
const (
	kHello uint8 = 0x10 + iota
	kGrandPred
	kGrandSucc
	kInvite
	kAccept
	kSize
	kInterval
	kWGrandPred
	kWGrandSucc
	kWClaim
)

// Path holds a node's undirected path links. Pred/Succ are None at the ends.
type Path struct {
	Pred, Succ ncc.ID
}

// IsHead reports whether the node is the first node of the path.
func (p Path) IsHead() bool { return p.Pred == ncc.None }

// IsTail reports whether the node is the last node of the path.
func (p Path) IsTail() bool { return p.Succ == ncc.None }

// BuildPathStep converts the directed initial knowledge path Gk into an
// undirected ordered path in one round (§3.1): every node introduces itself
// to its successor, so each node learns its predecessor.
//
// Rounds: exactly 1.
func BuildPathStep(nd *ncc.Node, k func(Path) ncc.Op) ncc.Op {
	succ := nd.InitialSucc()
	if succ != ncc.None {
		nd.Send(succ, ncc.Message{Kind: kHello})
	}
	p := Path{Pred: ncc.None, Succ: succ}
	return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
		for _, m := range w.Msgs {
			if m.Kind == kHello {
				p.Pred = m.Src
			}
		}
		return k(p)
	})
}

// Levels is the structure L of §3.1.1: Pred[r]/Succ[r] are the node's
// neighbors at distance 2^r in the underlying path (None where absent),
// for r = 0..⌈log₂ n⌉. Level-r links are exactly the paths of level L_r:
// each level splits its parent path into the odd- and even-position paths.
type Levels struct {
	Pred, Succ []ncc.ID
}

// Top returns the highest level index, ⌈log₂ n⌉.
func (l Levels) Top() int { return len(l.Pred) - 1 }

// BuildLevelsStep constructs the structure L above an arbitrary undirected
// path (usually the converted Gk, but any path with valid Pred/Succ links
// works, which the sorting layer exploits on sub-paths). At each level every
// node introduces its level-r predecessor to its level-r successor and vice
// versa; the receivers adopt them as level-(r+1) links.
//
// Rounds: exactly ⌈log₂ n⌉ (one per level). Each node sends ≤ 2 messages
// per round.
func BuildLevelsStep(nd *ncc.Node, p Path, k func(Levels) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	l := Levels{Pred: make([]ncc.ID, K+1), Succ: make([]ncc.ID, K+1)}
	l.Pred[0], l.Succ[0] = p.Pred, p.Succ
	var level func(r int) ncc.Op
	level = func(r int) ncc.Op {
		if r >= K {
			return k(l)
		}
		if l.Succ[r] != ncc.None && l.Pred[r] != ncc.None {
			// Teach my successor its grand-predecessor (= my predecessor).
			nd.Send(l.Succ[r], ncc.Message{Kind: kGrandPred}.WithIDs(l.Pred[r]))
			// Teach my predecessor its grand-successor (= my successor).
			nd.Send(l.Pred[r], ncc.Message{Kind: kGrandSucc}.WithIDs(l.Succ[r]))
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				switch m.Kind {
				case kGrandPred:
					l.Pred[r+1] = m.IDs()[0]
				case kGrandSucc:
					l.Succ[r+1] = m.IDs()[0]
				}
			}
			return level(r + 1)
		})
	}
	return level(0)
}

// Tree is a node's view of the balanced binary search tree TBFS produced by
// the controlled BFS of Algorithm 1, later annotated with subtree sizes and
// inorder positions.
type Tree struct {
	IsRoot      bool
	Parent      ncc.ID // None for the root
	Left, Right ncc.ID // child IDs, None where absent
	Depth       int    // root has depth 0

	// Filled by AnnotateTreeStep:
	Size     int // size of this node's subtree
	LeftSize int // size of the left subtree
	Pos      int // inorder position, equal to the node's path position
}

// BuildTBFSStep runs the controlled BFS of Algorithm 1 over the structure L.
// The path head (the unique node with no predecessor) is the root. For
// levels i = top−1 down to 0, members of Sp invite their level-i predecessor
// as left child and members of Ss invite their level-i successor as right
// child; an invited node outside the tree accepts one invitation, ACKs, and
// joins Sp and Ss. The resulting tree has height ≤ ⌈log₂ n⌉ + 1 and its
// inorder traversal is the underlying path order (Theorem 1).
//
// Rounds: exactly 2·⌈log₂ n⌉ (an invite round and an accept round per level).
func BuildTBFSStep(nd *ncc.Node, l Levels, k func(Tree) ncc.Op) ncc.Op {
	t := Tree{Parent: ncc.None, Left: ncc.None, Right: ncc.None}
	isRoot := l.Pred[0] == ncc.None
	t.IsRoot = isRoot
	inTree := isRoot
	inSp, inSs := isRoot, isRoot
	var level func(i int) ncc.Op
	level = func(i int) ncc.Op {
		if i < 0 {
			if !inTree {
				// Theorem 1 guarantees spanning; reaching here means the level
				// structure was corrupted by the caller.
				panic(fmt.Sprintf("primitives: node %d not spanned by TBFS", nd.ID()))
			}
			return k(t)
		}
		// Invite round.
		if inSp && l.Pred[i] != ncc.None {
			nd.Send(l.Pred[i], ncc.Message{Kind: kInvite, A: 0, B: int64(t.Depth)})
			inSp = false
		}
		if inSs && l.Succ[i] != ncc.None {
			nd.Send(l.Succ[i], ncc.Message{Kind: kInvite, A: 1, B: int64(t.Depth)})
			inSs = false
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			// Accept round: join under the first inviter (the uniqueness
			// argument of Theorem 1 shows competing invitations cannot occur).
			if !inTree {
				for _, m := range w.Msgs {
					if m.Kind != kInvite {
						continue
					}
					inTree = true
					t.Parent = m.Src
					t.Depth = int(m.B) + 1
					nd.Send(m.Src, ncc.Message{Kind: kAccept, A: m.A})
					inSp, inSs = true, true
					break
				}
			}
			return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
				for _, m := range w.Msgs {
					if m.Kind == kAccept {
						if m.A == 0 {
							t.Left = m.Src
						} else {
							t.Right = m.Src
						}
					}
				}
				return level(i - 1)
			})
		})
	}
	return level(l.Top() - 1)
}

// AnnotateTreeStep computes subtree sizes (convergecast) and inorder
// positions (top-down) on a TBFS, giving every node its position in the
// underlying path — Corollary 2. The root's inorder interval starts at 0, so
// Pos is 0-based.
//
// Rounds: exactly 2·(⌈log₂ n⌉ + 3) from the caller's current round.
func AnnotateTreeStep(nd *ncc.Node, t *Tree, k func() ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	// Phase A: subtree sizes, leaves upward. A node at height h sends in
	// round startA+h, so everything completes within K+2 rounds.
	startA := nd.Round()
	children := 0
	if t.Left != ncc.None {
		children++
	}
	if t.Right != ncc.None {
		children++
	}
	t.Size = 1
	t.LeftSize = 0
	got := 0

	phaseB := func() ncc.Op {
		startB := nd.Round()
		lo := 0
		assign := func() ncc.Op {
			t.Pos = lo + t.LeftSize
			if t.Left != ncc.None {
				nd.Send(t.Left, ncc.Message{Kind: kInterval, A: int64(lo)})
			}
			if t.Right != ncc.None {
				nd.Send(t.Right, ncc.Message{Kind: kInterval, A: int64(t.Pos + 1)})
			}
			return SyncAtStep(nd, startB+K+3, func([]ncc.Message) ncc.Op { return k() })
		}
		if t.IsRoot {
			return assign()
		}
		var wait ncc.Cont
		wait = func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			waiting := true
			for _, m := range w.Msgs {
				if m.Kind == kInterval {
					lo = int(m.A)
					waiting = false
				}
			}
			if waiting {
				return ncc.Await(wait)
			}
			return assign()
		}
		return ncc.Await(wait)
	}

	afterSizes := func() ncc.Op {
		if !t.IsRoot {
			nd.Send(t.Parent, ncc.Message{Kind: kSize, A: int64(t.Size)})
		}
		return SyncAtStep(nd, startA+K+3, func([]ncc.Message) ncc.Op { return phaseB() })
	}
	if got >= children {
		return afterSizes()
	}
	var sizes ncc.Cont
	sizes = func(nd *ncc.Node, w ncc.Wake) ncc.Op {
		for _, m := range w.Msgs {
			if m.Kind != kSize {
				continue
			}
			t.Size += int(m.A)
			if m.Src == t.Left {
				t.LeftSize = int(m.A)
			}
			got++
		}
		if got < children {
			return ncc.Await(sizes)
		}
		return afterSizes()
	}
	return ncc.Await(sizes)
}

// BuildAllStep runs the full §3.1 pipeline — path conversion, structure L,
// controlled BFS, and annotation — delivering the node's complete structural
// state to k. Rounds: O(log n), deterministic in n.
func BuildAllStep(nd *ncc.Node, k func(Path, Levels, Tree) ncc.Op) ncc.Op {
	return BuildPathStep(nd, func(p Path) ncc.Op {
		return BuildLevelsStep(nd, p, func(l Levels) ncc.Op {
			return BuildTBFSStep(nd, l, func(t Tree) ncc.Op {
				return AnnotateTreeStep(nd, &t, func() ncc.Op {
					return k(p, l, t)
				})
			})
		})
	})
}

// SyncAtStep advances the node to the given round (no-op if already past it),
// delivering any messages that arrived while waiting to k; lockstep protocols
// use it as a barrier between phases.
func SyncAtStep(nd *ncc.Node, round int, k func([]ncc.Message) ncc.Op) ncc.Op {
	if nd.Round() >= round {
		return k(nil)
	}
	return ncc.Sleep(round-nd.Round(), func(nd *ncc.Node, w ncc.Wake) ncc.Op { return k(w.Msgs) })
}
