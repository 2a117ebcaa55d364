package sortnet

import (
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// recursionStep runs one globally synchronized step of the merge recursion:
// link refresh, size probes, base-case/insert/median handling, split
// broadcast, relink, and sub-instance appointment, then continues with k.
// Every node participates in lockstep; per-step round budget is fixed by
// stepBudget.
func (ms *mergeState) recursionStep(step int, k func() ncc.Op) ncc.Op {
	nd := ms.nd
	K := ms.K
	base := nd.Round()
	st := &stepState{psize: [2]int{-1, -1}, ptail: [2]ncc.ID{ncc.None, ncc.None},
		newHead: [2]ncc.ID{ncc.None, ncc.None}, mySide: -1, predSide: -1, succSide: -1}
	h := ms.stepHandler(st)
	// Set by the coordinator decision after SP2, read again at SP4/SP6.
	coord := false
	mode := 0

	// SP6: appoint (4 rounds).
	appoint := func() ncc.Op {
		if coord {
			switch mode {
			case 2:
				if !st.insDone {
					panic("sortnet: insertion did not complete in budget")
				}
				head, tail := ms.instA, st.ptail[0]
				if st.insFlag&flagFront != 0 {
					head = st.insY
				}
				if st.insFlag&flagEnd != 0 {
					tail = st.insY
				}
				ms.finish(head, tail)
			case 3:
				x := st.median
				// The (<) piece of each path keeps the old head — unless the
				// median was that head, or the whole path fell on the (>) side
				// (its old head reported itself as a boundary head).
				h0A := ms.instA
				if h0A == x.id || st.newHead[0] == ms.instA {
					h0A = ncc.None
				}
				h0B := ms.instB
				if h0B == x.id || st.newHead[1] == ms.instB {
					h0B = ncc.None
				}
				// Appoint x as coordinator of the (<) instance.
				flags := int64(0)
				var ids []ncc.ID
				if h0A != ncc.None {
					flags |= 1
					ids = append(ids, h0A)
				}
				if h0B != ncc.None {
					flags |= 2
					ids = append(ids, h0B)
				}
				nd.Send(x.id, ncc.Message{Kind: kMAppoint, A: flags, B: int64(step)}.WithIDs(ids...))
				ms.pend = append(ms.pend, pendSplice{x: x.id, depth: step})
				// Keep the (>) instance ourselves.
				ms.instA = st.newHead[0]
				ms.instB = st.newHead[1]
				if ms.instA == ncc.None && ms.instB == ncc.None {
					panic("sortnet: > instance cannot be empty (median is never the tail)")
				}
			}
		}
		return ms.window(base+ms.stepBudget(), h, k)
	}

	// SP5: relink (8 rounds). Participants with split info exchange sides
	// with their path neighbors and cut the path at the boundaries.
	relink := func() ncc.Op {
		relDeadline := base + ms.stepBudget() - 4
		if ms.split != nil && !ms.out {
			side := int64(0)
			switch {
			case ms.me == ms.split.x:
				side = 2
			case !ms.me.before(ms.split.x):
				side = 1
			}
			st.mySide = side
			if ms.pred != ncc.None {
				nd.Send(ms.pred, ncc.Message{Kind: kMSide, A: side, B: 1}) // B=1: from your succ
			}
			if ms.succ != ncc.None {
				nd.Send(ms.succ, ncc.Message{Kind: kMSide, A: side, B: 0}) // from your pred
			}
		}
		// One round for sides to land.
		return ms.window(nd.Round()+1, h, func() ncc.Op {
			if ms.split != nil && !ms.out {
				ms.applySplit(st)
			}
			ms.split = nil
			return ms.window(relDeadline, h, appoint)
		})
	}

	// SP4: split broadcast (K+6 rounds). The insert descent also completes
	// within SP4/SP5.
	sp4 := func() ncc.Op {
		if coord && mode == 3 {
			if !st.median.valid() {
				panic("sortnet: median descent did not complete in budget")
			}
			nd.Send(ms.instA, ncc.Message{Kind: kMSplit, A: st.median.key,
				B: int64(st.psize[0] - 1), C: 0}.WithIDs(st.median.id, nd.ID()))
			nd.Send(ms.instB, ncc.Message{Kind: kMSplit, A: st.median.key,
				B: int64(st.psize[1] - 1), C: 1}.WithIDs(st.median.id, nd.ID()))
		}
		return ms.window(base+K+2+2*K+8+K+6+K+6, h, relink)
	}

	// Coordinator decision + SP3: median descent / insert start (K+6 rounds).
	decide := func() ncc.Op {
		if coord {
			sA, sB := st.psize[0], st.psize[1]
			if sA < 0 || sB < 0 {
				panic("sortnet: probe did not complete in budget")
			}
			switch {
			case sA == 0 && sB == 0:
				ms.finish(ncc.None, ncc.None)
			case sB == 0:
				ms.finish(ms.instA, st.ptail[0])
			case sA == 0:
				ms.finish(ms.instB, st.ptail[1])
			case sB == 1:
				mode = 2
				st.insY = ms.instB
				nd.Send(ms.instB, ncc.Message{Kind: kMInsert}.WithIDs(ms.instA))
			case sA == 1:
				mode = 2
				st.insY = ms.instA
				// Swap: insert the A singleton into B; the result replaces both.
				nd.Send(ms.instA, ncc.Message{Kind: kMInsert}.WithIDs(ms.instB))
				ms.instA, ms.instB = ms.instB, ms.instA
				st.psize[0], st.psize[1] = st.psize[1], st.psize[0]
				st.ptail[0], st.ptail[1] = st.ptail[1], st.ptail[0]
			default:
				mode = 3
				largerHead, largerSize := ms.instA, sA
				if st.psize[1] > sA {
					largerHead, largerSize = ms.instB, st.psize[1]
				}
				pos := (largerSize - 1) / 2
				nd.Send(largerHead, ncc.Message{Kind: kMPosHop, A: int64(pos)}.WithIDs(nd.ID()))
			}
		}
		return ms.window(base+K+2+2*K+8+K+6, h, sp4)
	}

	// SP2: probes (2K+8 rounds).
	probes := func() ncc.Op {
		coord = ms.active()
		if coord {
			if ms.instA == ncc.None {
				st.psize[0] = 0
			} else {
				nd.Send(ms.instA, ncc.Message{Kind: kMProbe, B: 0})
			}
			if ms.instB == ncc.None {
				st.psize[1] = 0
			} else {
				nd.Send(ms.instB, ncc.Message{Kind: kMProbe, B: 1})
			}
		}
		return ms.window(base+K+2+2*K+8, h, decide)
	}

	// SP1: refresh value-annotated doubling links (K+2 rounds).
	return ms.buildLinks(base, probes)
}

// applySplit cuts the node's path links according to the side exchange.
func (ms *mergeState) applySplit(st *stepState) {
	if st.mySide == 2 {
		// We are the median: leave the path until the ascent splices us.
		ms.out = true
		ms.pred, ms.succ = ncc.None, ncc.None
		return
	}
	newHead := false
	if ms.succ != ncc.None && (st.succSide == 2 || st.succSide != st.mySide) {
		ms.succ = ncc.None
	}
	if ms.pred == ncc.None {
		if st.mySide == 1 {
			newHead = true // the whole path is on the (>) side
		}
	} else if st.predSide == 2 || st.predSide != st.mySide {
		ms.pred = ncc.None
		if st.mySide == 1 {
			newHead = true
		}
	}
	if newHead {
		ms.nd.Send(ms.split.coord, ncc.Message{Kind: kMNewHead, B: int64(ms.split.tag)})
	}
}

// ascentStep splices the median appointed at recursion step `slot` back
// between the two merged halves, then continues with k. Budget: 6 rounds.
func (ms *mergeState) ascentStep(slot int, k func() ncc.Op) ncc.Op {
	nd := ms.nd
	base := nd.Round()
	st := &stepState{}
	h := ms.stepHandler(st)
	// Sub-coordinators appointed at this slot report their final result.
	if ms.parentCoord != ncc.None && ms.myDepthSlot == slot {
		flags := int64(0)
		var ids []ncc.ID
		if ms.resH != ncc.None {
			flags |= 1
			ids = append(ids, ms.resH, ms.resT)
		}
		nd.Send(ms.parentCoord, ncc.Message{Kind: kMResult, A: flags}.WithIDs(ids...))
		ms.parentCoord = ncc.None
	}
	// Coordinators with a pending splice at this slot consume the report.
	expect := len(ms.pend) > 0 && ms.pend[len(ms.pend)-1].depth == slot
	got := false
	handler := func(m ncc.Message) {
		if m.Kind == kMResult {
			if !expect {
				panic("sortnet: unexpected sub-result")
			}
			p := &ms.pend[len(ms.pend)-1]
			p.haveResult = true
			if m.A&1 != 0 {
				p.h, p.t = m.IDs()[0], m.IDs()[1]
			} else {
				p.h, p.t = ncc.None, ncc.None
			}
			got = true
			return
		}
		h(m)
	}
	return ms.window(base+2, handler, func() ncc.Op {
		if expect {
			if !got {
				panic("sortnet: missing sub-result at ascent")
			}
			p := ms.pend[len(ms.pend)-1]
			ms.pend = ms.pend[:len(ms.pend)-1]
			x := p.x
			// Splice: P< (p.h, p.t) → x → P> (ms.resH, ms.resT).
			if p.t != ncc.None {
				nd.Send(p.t, ncc.Message{Kind: kMSpliceS, A: 1}.WithIDs(x))
			}
			// x's own links:
			if p.t != ncc.None {
				nd.Send(x, ncc.Message{Kind: kMSpliceP, A: 1}.WithIDs(p.t))
			} else {
				nd.Send(x, ncc.Message{Kind: kMSpliceP, A: 0})
			}
			if ms.resH != ncc.None {
				nd.Send(x, ncc.Message{Kind: kMSpliceS, A: 1}.WithIDs(ms.resH))
				nd.Send(ms.resH, ncc.Message{Kind: kMSpliceP, A: 1}.WithIDs(x))
			} else {
				nd.Send(x, ncc.Message{Kind: kMSpliceS, A: 0})
			}
			// New result bounds.
			if p.h != ncc.None {
				ms.resH = p.h
			} else {
				ms.resH = x
			}
			if ms.resT == ncc.None {
				ms.resT = x
			}
		}
		return ms.window(base+ms.ascBudget(), h, k)
	})
}

// insertSelf has this level's coordinators insert their own pair into the
// merged path, then continues with k. The ascent splices invalidated the
// doubling links, so they are rebuilt first. Budget: 2K+12 rounds.
func (ms *mergeState) insertSelf(lvl int, k func() ncc.Op) ncc.Op {
	nd := ms.nd
	base := nd.Round()
	return ms.buildLinks(base, func() ncc.Op { // K+2 rounds
		st := &stepState{}
		mine := ms.gk.Depth == lvl && ms.needSelf
		if mine && len(ms.pend) != 0 {
			panic("sortnet: unconsumed splices at level end")
		}
		if mine && ms.resH == ncc.None {
			// Children's merge was empty (cannot happen: children report
			// non-empty paths), kept as a defensive singleton fallback.
			ms.resH, ms.resT = nd.ID(), nd.ID()
			ms.pred, ms.succ = ncc.None, ncc.None
			mine = false
		}
		if mine {
			nd.Send(ms.resH, ncc.Message{Kind: kMInsHop, A: ms.me.key}.WithIDs(nd.ID()))
		}
		ms.needSelf = false
		handler := func(m ncc.Message) {
			if m.Kind == kMInsR && mine {
				// Complete our own insertion inline (no coordinator to notify).
				if m.A == 1 {
					head := m.IDs()[0]
					ms.pred, ms.succ = ncc.None, head
					nd.Send(head, ncc.Message{Kind: kMSpliceP, A: 1}.WithIDs(nd.ID()))
					ms.resH = nd.ID()
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
						ms.resT = nd.ID()
					}
				}
				return
			}
			ms.stepHandler(st)(m)
		}
		return ms.window(base+2*ms.K+12, handler, k)
	})
}

// finalRanks computes every node's rank on the single global sorted path by
// a doubling prefix count, and delivers the Result to k.
func (ms *mergeState) finalRanks(k func(Result) ncc.Op) ncc.Op {
	nd := ms.nd
	base := nd.Round()
	return ms.buildLinks(base, func() ncc.Op {
		acc := int64(1)
		var count func(j int) ncc.Op
		count = func(j int) ncc.Op {
			if j >= ms.K {
				return primitives.SyncAt(nd, base+ms.K+2+ms.K+1, ncc.ContFunc(func(*ncc.Node, ncc.Wake) ncc.Op {
					return k(Result{Rank: int(acc - 1), Pred: ms.pred, Succ: ms.succ})
				}))
			}
			if ms.succAt[j].valid() {
				nd.Send(ms.succAt[j].id, ncc.Message{Kind: kMRankP, A: acc})
			}
			return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
				for _, m := range w.Msgs {
					if m.Kind != kMRankP {
						panic("sortnet: unexpected message during ranking")
					}
					acc += m.A
				}
				return count(j + 1)
			}))
		}
		return count(0)
	})
}
