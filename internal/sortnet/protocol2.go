package sortnet

import (
	"fmt"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// Step-scoped coordinator state (reset every recursion step).
type stepState struct {
	psize   [2]int
	ptail   [2]ncc.ID
	median  pair
	newHead [2]ncc.ID
	insDone bool
	insFlag int64
	insY    ncc.ID
	// side exchange of the relink sub-phase (-1 = not received)
	mySide, predSide, succSide int64
}

const (
	flagFront = 1 << iota
	flagEnd
)

// window advances to the deadline, dispatching non-splice messages to h,
// then continues with k. Resumable: each round is one suspension.
func (ms *mergeState) window(deadline int, h func(m ncc.Message), k func() ncc.Op) ncc.Op {
	var loop ncc.ContFunc
	loop = func(nd *ncc.Node, in []ncc.Message) ncc.Op {
		ms.apply(in, h)
		if ms.nd.Round() < deadline {
			return ncc.Next(loop)
		}
		return k()
	}
	if ms.nd.Round() < deadline {
		return ncc.Next(loop)
	}
	return k()
}

// maxJump returns the largest level with a valid succ link, or -1.
func (ms *mergeState) maxJump(limit int) int {
	for j := len(ms.succAt) - 1; j >= 0; j-- {
		if ms.succAt[j].valid() && (limit < 0 || 1<<j <= limit) {
			return j
		}
	}
	return -1
}

// buildLinks refreshes the value-annotated doubling links along the node's
// current path, then continues with k. Rounds: exactly K+2 from base.
func (ms *mergeState) buildLinks(base int, k func() ncc.Op) ncc.Op {
	nd := ms.nd
	K := ms.K
	ms.predAt = make([]pair, K+1)
	ms.succAt = make([]pair, K+1)
	// Level 0: exchange own keys with path neighbors.
	if !ms.out {
		if ms.pred != ncc.None {
			nd.Send(ms.pred, ncc.Message{Kind: kMKeyS, A: ms.me.key, B: 0})
		}
		if ms.succ != ncc.None {
			nd.Send(ms.succ, ncc.Message{Kind: kMKeyP, A: ms.me.key, B: 0})
		}
	}
	var round func(r int) ncc.Op
	round = func(r int) ncc.Op {
		if r > K {
			return primitives.SyncAt(nd, base+K+2, ncc.ContFunc(func(*ncc.Node, []ncc.Message) ncc.Op { return k() }))
		}
		return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
			ms.apply(in, func(m ncc.Message) {
				lvl := int(m.B)
				switch m.Kind {
				case kMKeyP:
					id := m.Src
					if len(m.IDs()) > 0 {
						id = m.IDs()[0]
					}
					ms.predAt[lvl] = pair{m.A, id}
				case kMKeyS:
					id := m.Src
					if len(m.IDs()) > 0 {
						id = m.IDs()[0]
					}
					ms.succAt[lvl] = pair{m.A, id}
				default:
					panic(fmt.Sprintf("sortnet: unexpected 0x%x in buildLinks", m.Kind))
				}
			})
			// Propagate level r to level r+1.
			if r < K && !ms.out && ms.predAt[r].valid() && ms.succAt[r].valid() {
				nd.Send(ms.succAt[r].id, ncc.Message{Kind: kMKeyP, A: ms.predAt[r].key, B: int64(r + 1)}.WithIDs(ms.predAt[r].id))
				nd.Send(ms.predAt[r].id, ncc.Message{Kind: kMKeyS, A: ms.succAt[r].key, B: int64(r + 1)}.WithIDs(ms.succAt[r].id))
			}
			return round(r + 1)
		}))
	}
	return round(0)
}

// active reports whether this node currently coordinates an unfinished
// instance.
func (ms *mergeState) active() bool {
	return !ms.done && (ms.instA != ncc.None || ms.instB != ncc.None || ms.resH != ncc.None)
}

func (ms *mergeState) finish(h, t ncc.ID) {
	ms.done = true
	ms.resH, ms.resT = h, t
}

// stepHandler processes every participant-side message of a recursion step;
// st collects coordinator-side responses.
func (ms *mergeState) stepHandler(st *stepState) func(m ncc.Message) {
	nd := ms.nd
	return func(m ncc.Message) {
		switch m.Kind {
		case kMProbe:
			// We are a head: start the tail/size descent. pos accumulates.
			ms.forwardProbe(m.Src, int(m.B), 0)
		case kMTailHop:
			ms.forwardProbe(m.IDs()[0], int(m.B), int(m.A))
		case kMTailR:
			st.psize[m.B] = int(m.A) + 1
			st.ptail[m.B] = m.IDs()[0]
		case kMPosHop:
			ms.forwardPos(m.IDs()[0], int(m.A))
		case kMPosR:
			st.median = pair{m.A, m.Src}
		case kMSplit:
			ms.handleSplit(m)
		case kMSide:
			if m.B == 0 {
				st.predSide = m.A
			} else {
				st.succSide = m.A
			}
		case kMNewHead:
			st.newHead[m.B] = m.Src
		case kMAppoint:
			idx := 0
			ms.instA, ms.instB = ncc.None, ncc.None
			if m.A&1 != 0 {
				ms.instA = m.IDs()[idx]
				idx++
			}
			if m.A&2 != 0 {
				ms.instB = m.IDs()[idx]
			}
			ms.done = false
			ms.resH, ms.resT = ncc.None, ncc.None
			ms.parentCoord = m.Src
			ms.myDepthSlot = int(m.B)
			if ms.instA == ncc.None && ms.instB == ncc.None {
				ms.finish(ncc.None, ncc.None)
			}
		case kMInsert:
			ms.startInsertion(m.Src, m.IDs()[0])
		case kMInsHop:
			ms.forwardInsert(m)
		case kMInsR:
			ms.completeInsertion(m)
		case kMInsDone:
			st.insDone = true
			st.insFlag = m.B
			st.insY = m.Src
		case kMResult:
			panic("sortnet: kMResult outside ascent")
		default:
			panic(fmt.Sprintf("sortnet: node %d unexpected kind 0x%x in step", nd.ID(), m.Kind))
		}
	}
}

// forwardProbe advances a tail/size probe: pos is our position so far.
func (ms *mergeState) forwardProbe(coord ncc.ID, tag, pos int) {
	j := ms.maxJump(-1)
	if j < 0 {
		// We are the tail.
		ms.nd.Send(coord, ncc.Message{Kind: kMTailR, A: int64(pos), B: int64(tag)}.WithIDs(ms.nd.ID()))
		return
	}
	ms.nd.Send(ms.succAt[j].id, ncc.Message{Kind: kMTailHop, A: int64(pos + 1<<j), B: int64(tag)}.WithIDs(coord))
}

// forwardPos advances a find-by-position descent (k hops remaining).
func (ms *mergeState) forwardPos(coord ncc.ID, k int) {
	if k == 0 {
		ms.nd.Send(coord, ncc.Message{Kind: kMPosR, A: ms.me.key})
		return
	}
	j := ms.maxJump(k)
	if j < 0 {
		panic("sortnet: position descent ran off the path")
	}
	ms.nd.Send(ms.succAt[j].id, ncc.Message{Kind: kMPosHop, A: int64(k - 1<<j)}.WithIDs(coord))
}

// split bookkeeping (participant side).
type splitInfo struct {
	x     pair
	coord ncc.ID
	tag   int
}

// handleSplit stores split info and continues the recursive-halving
// broadcast along the path.
func (ms *mergeState) handleSplit(m ncc.Message) {
	ms.split = &splitInfo{x: pair{m.A, m.IDs()[0]}, coord: m.IDs()[1], tag: int(m.C)}
	rem := int(m.B)
	for rem > 0 {
		t := 0
		for 1<<(t+1) <= rem {
			t++
		}
		if !ms.succAt[t].valid() {
			panic("sortnet: split broadcast missing link")
		}
		ms.nd.Send(ms.succAt[t].id, ncc.Message{Kind: kMSplit, A: m.A, B: int64(rem - 1<<t), C: m.C}.WithIDs(m.IDs()[0], m.IDs()[1]))
		rem = 1<<t - 1
	}
}

// Insertion machinery: y inserts itself into the path headed by head.
func (ms *mergeState) startInsertion(coord, head ncc.ID) {
	ms.insCoord = coord
	if head == ncc.None {
		panic("sortnet: insert into empty path")
	}
	ms.nd.Send(head, ncc.Message{Kind: kMInsHop, A: ms.me.key}.WithIDs(ms.nd.ID()))
}

// forwardInsert advances y's predecessor search along our path.
func (ms *mergeState) forwardInsert(m ncc.Message) {
	y := pair{m.A, m.IDs()[0]}
	if !ms.me.before(y) {
		// Even we sort after y: y becomes the new head, in front of us.
		ms.nd.Send(m.IDs()[0], ncc.Message{Kind: kMInsR, A: 1}.WithIDs(ms.nd.ID()))
		return
	}
	for j := len(ms.succAt) - 1; j >= 0; j-- {
		if ms.succAt[j].valid() && ms.succAt[j].before(y) {
			ms.nd.Send(ms.succAt[j].id, ncc.Message{Kind: kMInsHop, A: m.A}.WithIDs(m.IDs()[0]))
			return
		}
	}
	// We are y's predecessor; report ourselves and our successor.
	msg := ncc.Message{Kind: kMInsR, A: 0}
	if ms.succ != ncc.None {
		msg = msg.WithIDs(ms.nd.ID(), ms.succ)
		msg.B = 1
	} else {
		msg = msg.WithIDs(ms.nd.ID())
	}
	ms.nd.Send(m.IDs()[0], msg)
}

// completeInsertion splices y (this node) into the path and reports flags
// to the coordinator.
func (ms *mergeState) completeInsertion(m ncc.Message) {
	nd := ms.nd
	flags := int64(0)
	if m.A == 1 {
		// Insert at the front: IDs[0] is the old head.
		head := m.IDs()[0]
		ms.pred = ncc.None
		ms.succ = head
		nd.Send(head, ncc.Message{Kind: kMSpliceP, A: 1}.WithIDs(nd.ID()))
		flags |= flagFront
	} else {
		u := m.IDs()[0]
		ms.pred = u
		nd.Send(u, ncc.Message{Kind: kMSpliceS, A: 1}.WithIDs(nd.ID()))
		if m.B == 1 {
			sp := m.IDs()[1]
			ms.succ = sp
			nd.Send(sp, ncc.Message{Kind: kMSpliceP, A: 1}.WithIDs(nd.ID()))
		} else {
			ms.succ = ncc.None
			flags |= flagEnd
		}
	}
	ms.out = false
	nd.Send(ms.insCoord, ncc.Message{Kind: kMInsDone, B: flags})
}
