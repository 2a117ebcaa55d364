// Package primitives implements the structural primitives of §3.1 of
// "Distributed Graph Realizations": converting the directed knowledge path
// Gk into an undirected path, building the level structure L (distance-
// doubling links), the controlled BFS that turns L into a balanced binary
// search tree TBFS (Theorem 1, Figure 2), inorder annotation that gives every
// node its position in the path (Corollary 2), and the warm-up balanced
// binary tree of Figure 1.
//
// Every primitive is written in lockstep style: it consumes a number of
// rounds that is a deterministic function of n (via SyncAt barriers), so
// primitives compose sequentially without extra coordination, and round
// metrics are reproducible.
//
// Every primitive is written in the resumable step form of package ncc: a
// call Foo(nd, …, k) performs the current round's compute slice and returns
// an ncc.Op whose continuation eventually invokes k with the result, so
// primitives compose by nesting continuations. A primitive that runs a loop
// of rounds keeps its state in one struct whose Resume method is its
// continuation, with its loop counters and phase as fields, so no round
// allocates a continuation.
//
// Who owns that struct depends on how often the primitive runs. The package
// function allocates a fresh one per call, which suits a primitive a
// realization runs once. A primitive a realization runs again and again
// also has an exported state type (LevelsBuilder here): its caller embeds
// one and calls the same-named method on it, which reuses the struct and
// every array it holds, so a repeat call allocates nothing. A result that
// points into such a state (LevelsBuilder's Levels) stays valid until the
// next call on the same state.
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

// BuildPath converts the directed initial knowledge path Gk into an
// undirected ordered path in one round (§3.1): every node introduces itself
// to its successor, so each node learns its predecessor.
//
// Rounds: exactly 1.
func BuildPath(nd *ncc.Node, k func(Path) ncc.Op) ncc.Op {
	succ := nd.InitialSucc()
	if succ != ncc.None {
		nd.Send(succ, ncc.Message{Kind: kHello})
	}
	p := Path{Pred: ncc.None, Succ: succ}
	return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
		for _, m := range w.Msgs {
			if m.Kind == kHello {
				p.Pred = m.Src
			}
		}
		return k(p)
	}))
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

// BuildLevels constructs the structure L above an arbitrary undirected
// path (usually the converted Gk, but any path with valid Pred/Succ links
// works, which the sorting layer exploits on sub-paths). At each level every
// node introduces its level-r predecessor to its level-r successor and vice
// versa; the receivers adopt them as level-(r+1) links.
//
// Rounds: exactly ⌈log₂ n⌉ (one per level). Each node sends ≤ 2 messages
// per round.
func BuildLevels(nd *ncc.Node, p Path, k func(Levels) ncc.Op) ncc.Op {
	return new(LevelsBuilder).BuildLevels(nd, p, k)
}

// LevelsBuilder is BuildLevels' per-node state, and its continuation: the
// links built so far and the level r whose introductions are in flight. A
// caller that builds L again and again keeps one; the zero value is ready.
type LevelsBuilder struct {
	links  []ncc.ID // Levels.Pred then Levels.Succ, reused by every build
	l      Levels
	r, top int
	k      func(Levels) ncc.Op
}

// BuildLevels runs the package function BuildLevels on b. A repeat call
// reuses b's link arrays and allocates nothing; the Levels it delivers share
// them, so they stay valid until b's next BuildLevels.
func (b *LevelsBuilder) BuildLevels(nd *ncc.Node, p Path, k func(Levels) ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	if len(b.links) != 2*(K+1) {
		b.links = make([]ncc.ID, 2*(K+1))
	} else {
		clear(b.links)
	}
	b.l = Levels{Pred: b.links[: K+1 : K+1], Succ: b.links[K+1:]}
	b.r, b.top, b.k = 0, K, k
	b.l.Pred[0], b.l.Succ[0] = p.Pred, p.Succ
	return b.introduce(nd)
}

// introduce sends level r's introductions, or delivers L once every level
// is built.
func (b *LevelsBuilder) introduce(nd *ncc.Node) ncc.Op {
	r, l := b.r, b.l
	if r >= b.top {
		return b.k(l)
	}
	if l.Succ[r] != ncc.None && l.Pred[r] != ncc.None {
		// Teach my successor its grand-predecessor (= my predecessor).
		nd.Send(l.Succ[r], ncc.Message{Kind: kGrandPred}.WithIDs(l.Pred[r]))
		// Teach my predecessor its grand-successor (= my successor).
		nd.Send(l.Pred[r], ncc.Message{Kind: kGrandSucc}.WithIDs(l.Succ[r]))
	}
	return ncc.Next(b)
}

// Resume adopts the level-(r+1) links introduced to this node.
func (b *LevelsBuilder) Resume(nd *ncc.Node, w ncc.Wake) ncc.Op {
	for _, m := range w.Msgs {
		switch m.Kind {
		case kGrandPred:
			b.l.Pred[b.r+1] = m.IDs()[0]
		case kGrandSucc:
			b.l.Succ[b.r+1] = m.IDs()[0]
		}
	}
	b.r++
	return b.introduce(nd)
}

// Tree is a node's view of the balanced binary search tree TBFS produced by
// the controlled BFS of Algorithm 1, later annotated with subtree sizes and
// inorder positions.
type Tree struct {
	IsRoot      bool
	Parent      ncc.ID // None for the root
	Left, Right ncc.ID // child IDs, None where absent
	Depth       int    // root has depth 0

	// Filled by AnnotateTree:
	Size     int // size of this node's subtree
	LeftSize int // size of the left subtree
	Pos      int // inorder position, equal to the node's path position
}

// BuildTBFS runs the controlled BFS of Algorithm 1 over the structure L.
// The path head (the unique node with no predecessor) is the root. For
// levels i = top−1 down to 0, members of Sp invite their level-i predecessor
// as left child and members of Ss invite their level-i successor as right
// child; an invited node outside the tree accepts one invitation, ACKs, and
// joins Sp and Ss. The resulting tree has height ≤ ⌈log₂ n⌉ + 1 and its
// inorder traversal is the underlying path order (Theorem 1).
//
// Rounds: exactly 2·⌈log₂ n⌉ (an invite round and an accept round per level).
func BuildTBFS(nd *ncc.Node, l Levels, k func(Tree) ncc.Op) ncc.Op {
	isRoot := l.Pred[0] == ncc.None
	s := &tbfsState{
		t: Tree{IsRoot: isRoot, Parent: ncc.None, Left: ncc.None, Right: ncc.None},
		l: l, i: l.Top() - 1,
		inTree: isRoot, inSp: isRoot, inSs: isRoot,
		k: k,
	}
	return s.invite(nd)
}

// tbfsState is one BuildTBFS call's per-node state, and its continuation:
// the tree so far, the node's membership of the tree and of Sp and Ss, the
// level i in progress, and which of the level's two rounds, accept or
// adopt, the node resumes in.
type tbfsState struct {
	t                  Tree
	l                  Levels
	i                  int
	inTree, inSp, inSs bool
	adopting           bool
	k                  func(Tree) ncc.Op
}

// Resume runs the accept or the adopt round.
func (s *tbfsState) Resume(nd *ncc.Node, w ncc.Wake) ncc.Op {
	if s.adopting {
		return s.adopt(nd, w)
	}
	return s.accept(nd, w)
}

// invite runs level i's invite round, or delivers the tree once level 0 is
// done.
func (s *tbfsState) invite(nd *ncc.Node) ncc.Op {
	i := s.i
	if i < 0 {
		if !s.inTree {
			// Theorem 1 guarantees spanning; reaching here means the level
			// structure was corrupted by the caller.
			panic(fmt.Sprintf("primitives: node %d not spanned by TBFS", nd.ID()))
		}
		return s.k(s.t)
	}
	if s.inSp && s.l.Pred[i] != ncc.None {
		nd.Send(s.l.Pred[i], ncc.Message{Kind: kInvite, A: 0, B: int64(s.t.Depth)})
		s.inSp = false
	}
	if s.inSs && s.l.Succ[i] != ncc.None {
		nd.Send(s.l.Succ[i], ncc.Message{Kind: kInvite, A: 1, B: int64(s.t.Depth)})
		s.inSs = false
	}
	s.adopting = false
	return ncc.Next(s)
}

// accept is the accept round: join under the first inviter (the uniqueness
// argument of Theorem 1 shows competing invitations cannot occur).
func (s *tbfsState) accept(nd *ncc.Node, w ncc.Wake) ncc.Op {
	if !s.inTree {
		for _, m := range w.Msgs {
			if m.Kind != kInvite {
				continue
			}
			s.inTree = true
			s.t.Parent = m.Src
			s.t.Depth = int(m.B) + 1
			nd.Send(m.Src, ncc.Message{Kind: kAccept, A: m.A})
			s.inSp, s.inSs = true, true
			break
		}
	}
	s.adopting = true
	return ncc.Next(s)
}

// adopt records the children that accepted this level's invitations.
func (s *tbfsState) adopt(nd *ncc.Node, w ncc.Wake) ncc.Op {
	for _, m := range w.Msgs {
		if m.Kind == kAccept {
			if m.A == 0 {
				s.t.Left = m.Src
			} else {
				s.t.Right = m.Src
			}
		}
	}
	s.i--
	return s.invite(nd)
}

// AnnotateTree computes subtree sizes (convergecast) and inorder
// positions (top-down) on a TBFS, giving every node its position in the
// underlying path — Corollary 2. The root's inorder interval starts at 0, so
// Pos is 0-based.
//
// Rounds: exactly 2·(⌈log₂ n⌉ + 3) from the caller's current round.
func AnnotateTree(nd *ncc.Node, t *Tree, k func() ncc.Op) ncc.Op {
	K := ncc.CeilLog2(nd.N())
	pending := 0
	if t.Left != ncc.None {
		pending++
	}
	if t.Right != ncc.None {
		pending++
	}
	t.Size = 1
	t.LeftSize = 0
	// Phase A: subtree sizes, leaves upward. A node at height h sends in
	// round start+h, so everything completes within K+2 rounds.
	s := &annotateState{t: t, k: k, K: K, pending: pending, deadline: nd.Round() + K + 3}
	if pending == 0 {
		return s.sendSize(nd)
	}
	return ncc.Await(s)
}

// annotateState is one AnnotateTree call's per-node state, and its
// continuation: phase says where Resume picks up.
type annotateState struct {
	t        *Tree
	k        func() ncc.Op
	K        int
	pending  int // children whose subtree sizes have not arrived
	lo       int // start of the node's inorder interval
	deadline int // the round the current phase ends at
	phase    annotatePhase
}

type annotatePhase uint8

const (
	gatherSizes   annotatePhase = iota // awaiting the children's subtree sizes
	endSizes                           // sleeping until phase A ends
	awaitInterval                      // awaiting the interval from the parent
	endIntervals                       // sleeping until phase B ends
)

func (s *annotateState) Resume(nd *ncc.Node, w ncc.Wake) ncc.Op {
	t := s.t
	switch s.phase {
	case gatherSizes:
		for _, m := range w.Msgs {
			if m.Kind != kSize {
				continue
			}
			t.Size += int(m.A)
			if m.Src == t.Left {
				t.LeftSize = int(m.A)
			}
			s.pending--
		}
		if s.pending > 0 {
			return ncc.Await(s)
		}
		return s.sendSize(nd)
	case endSizes:
		// Phase B: inorder intervals, root downward.
		s.deadline = nd.Round() + s.K + 3
		if t.IsRoot {
			return s.assign(nd)
		}
		s.phase = awaitInterval
		return ncc.Await(s)
	case awaitInterval:
		waiting := true
		for _, m := range w.Msgs {
			if m.Kind == kInterval {
				s.lo = int(m.A)
				waiting = false
			}
		}
		if waiting {
			return ncc.Await(s)
		}
		return s.assign(nd)
	default: // endIntervals
		return s.k()
	}
}

// sendSize reports the subtree size to the parent and sleeps out phase A.
func (s *annotateState) sendSize(nd *ncc.Node) ncc.Op {
	if !s.t.IsRoot {
		nd.Send(s.t.Parent, ncc.Message{Kind: kSize, A: int64(s.t.Size)})
	}
	s.phase = endSizes
	return SyncAt(nd, s.deadline, s)
}

// assign takes the node's position in its interval, hands the children
// theirs and sleeps out phase B.
func (s *annotateState) assign(nd *ncc.Node) ncc.Op {
	t := s.t
	t.Pos = s.lo + t.LeftSize
	if t.Left != ncc.None {
		nd.Send(t.Left, ncc.Message{Kind: kInterval, A: int64(s.lo)})
	}
	if t.Right != ncc.None {
		nd.Send(t.Right, ncc.Message{Kind: kInterval, A: int64(t.Pos + 1)})
	}
	s.phase = endIntervals
	return SyncAt(nd, s.deadline, s)
}

// BuildAll runs the full §3.1 pipeline — path conversion, structure L,
// controlled BFS, and annotation — delivering the node's complete structural
// state to k. Rounds: O(log n), deterministic in n.
func BuildAll(nd *ncc.Node, k func(Path, Levels, Tree) ncc.Op) ncc.Op {
	return BuildPath(nd, func(p Path) ncc.Op {
		return BuildLevels(nd, p, func(l Levels) ncc.Op {
			return BuildTBFS(nd, l, func(t Tree) ncc.Op {
				return AnnotateTree(nd, &t, func() ncc.Op {
					return k(p, l, t)
				})
			})
		})
	})
}

// SyncAt advances the node to the given round (at once if it is already
// there or past it) and resumes k with any messages that arrived while it
// waited; lockstep protocols use it as a barrier between phases.
func SyncAt(nd *ncc.Node, round int, k ncc.Cont) ncc.Op {
	if nd.Round() >= round {
		return k.Resume(nd, ncc.Wake{})
	}
	return ncc.Sleep(round-nd.Round(), k)
}
