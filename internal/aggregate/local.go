package aggregate

import (
	"sort"

	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
)

// This file implements the local computational primitives of §3.2.3
// (Theorems 6–8): aggregation, multicast and token collection over g
// possibly-overlapping groups A₁..A_g, each with a unique group ID.
//
// The SPAA'19 paper realizes these over an emulated butterfly; we realize
// them over the structure L's distance-doubling links, which every node
// already holds (DESIGN.md substitution #3): each group ID hashes to a
// rendezvous position, packets route greedily position-to-position in
// ≤ ⌈log₂ n⌉ hops, and relays combine (aggregation), deduplicate and
// remember reverse paths (multicast subscription trees), or throttle
// (collection) per hop. Termination is detected by global quiescence
// aggregation over the TBFS, so round counts adapt to the load as
// O(L/n + ℓ + log n) per epoch batch.

// Kinds for local primitives (continuing the 0x30 block).
const (
	kLAgg uint8 = 0x40 + iota
	kLReg
	kLSub
	kLTok
	kLDeliver
	kLCollect
)

// LocalCtx is the per-node context for the local primitives: the node's Gk
// position, its doubling links, and the Gk tree for quiescence detection.
type LocalCtx struct {
	Pos  int
	Lv   primitives.Levels
	Tree *primitives.Tree
	N    int
}

// NewLocalCtx assembles the context from the §3.1 structures.
func NewLocalCtx(pos int, lv primitives.Levels, tree *primitives.Tree, n int) *LocalCtx {
	return &LocalCtx{Pos: pos, Lv: lv, Tree: tree, N: n}
}

// sortedGIDs returns m's keys in ascending order. Group-keyed working state
// lives in maps, but anything that can reach the wire — sends, budgeted
// serving — must walk them deterministically: map iteration order would make
// message schedules (and so round counts in the trace) vary run to run.
// This is the one blessed raw map range; every other iteration goes through
// it or is an order-independent fold.
func sortedGIDs[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	//grlint:allow D001 -- sole blessed map range: keys are sorted before any use
	for gid := range m {
		out = append(out, gid)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// rendezvous maps a group ID to a position via a splitmix64-style hash; all
// nodes share it, so no coordination is needed.
func (c *LocalCtx) rendezvous(gid int64) int {
	z := uint64(gid) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(c.N))
}

// nextHop returns the doubling link one greedy step from our position
// toward target (which must differ from Pos).
func (c *LocalCtx) nextHop(target int) ncc.ID {
	d := target - c.Pos
	if d == 0 {
		panic("aggregate: nextHop at target")
	}
	up := d > 0
	if !up {
		d = -d
	}
	j := 0
	for 1<<(j+1) <= d {
		j++
	}
	var link ncc.ID
	if up {
		link = c.Lv.Succ[j]
	} else {
		link = c.Lv.Pred[j]
	}
	if link == ncc.None {
		panic("aggregate: missing doubling link on greedy route")
	}
	return link
}

// GroupValue is one (group, value) contribution or result.
type GroupValue struct {
	GID   int64
	Value int64
}

// LocalAggregate implements Theorem 6: for every group, the op-fold of
// all members' contributions reaches the group's destination node. contribs
// are this node's memberships (one value per group it belongs to); destOf
// lists the group IDs this node is the destination of. k receives the folded
// value per destination group. All nodes must call it together.
func LocalAggregate(nd *ncc.Node, c *LocalCtx, contribs []GroupValue, destOf []int64, op Op, k func(map[int64]int64) ncc.Op) ncc.Op {
	type aggState struct {
		acc   int64
		fresh bool
	}
	// Registration pass: destinations announce themselves to rendezvous
	// nodes; contributions ride the same epochs afterwards.
	regTarget := map[int64]ncc.ID{} // rendezvous only: gid → destination ID
	results := map[int64]int64{}
	// Pending registration packets: (gid, destID) routed to rendezvous.
	type regPkt struct {
		gid  int64
		dest ncc.ID
	}
	var regQueue []regPkt
	for _, gid := range destOf {
		regQueue = append(regQueue, regPkt{gid, nd.ID()})
	}
	// Pending aggregation partials keyed by gid (combined per relay).
	pending := map[int64]*aggState{}
	for _, cv := range contribs {
		st, ok := pending[cv.GID]
		if !ok {
			st = &aggState{acc: op.Neutral}
			pending[cv.GID] = st
		}
		st.acc = op.Combine(st.acc, cv.Value)
		st.fresh = true
	}
	// Rendezvous-side accumulators; folds ship to destinations only after
	// global quiescence, when they are final.
	rvAcc := map[int64]*aggState{}
	combineAt := func(gid, v int64) {
		rv, ok := rvAcc[gid]
		if !ok {
			rv = &aggState{acc: op.Neutral}
			rvAcc[gid] = rv
		}
		rv.acc = op.Combine(rv.acc, v)
	}

	// Final delivery: rendezvous nodes ship folds to their destinations in
	// ascending gid order (several groups can share a destination, so send
	// order is observable), then one more quiescence epoch flushes them.
	deliver := func() ncc.Op {
		for _, gid := range sortedGIDs(rvAcc) {
			rv := rvAcc[gid]
			dest, ok := regTarget[gid]
			if !ok {
				continue
			}
			if dest == nd.ID() {
				results[gid] = rv.acc
			} else {
				nd.Send(dest, ncc.Message{Kind: kLDeliver, A: gid, B: rv.acc})
			}
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				if m.Kind == kLDeliver {
					results[m.A] = m.B
				}
			}
			return primitives.SyncAt(nd, nd.Round()+1, func(*ncc.Node, ncc.Wake) ncc.Op { return k(results) })
		})
	}

	epoch := 2*ncc.CeilLog2(c.N) + 6
	var round func(r int) ncc.Op
	round = func(r int) ncc.Op {
		if r == epoch {
			busy := int64(0)
			if len(pending) > 0 || len(regQueue) > 0 {
				busy = 1
			}
			return AggregateBroadcast(nd, c.Tree, busy, OrOp(), func(anyBusy int64) ncc.Op {
				if anyBusy == 0 {
					return deliver()
				}
				return round(0)
			})
		}
		// Send registrations (throttled: a few per round is plenty).
		nReg := len(regQueue)
		if nReg > 2 {
			nReg = 2
		}
		for i := 0; i < nReg; i++ {
			p := regQueue[i]
			t := c.rendezvous(p.gid)
			if t == c.Pos {
				regTarget[p.gid] = p.dest
			} else {
				nd.Send(c.nextHop(t), ncc.Message{Kind: kLReg, A: p.gid}.WithIDs(p.dest))
			}
		}
		regQueue = regQueue[nReg:]
		// Send one combined partial per fresh gid.
		for _, gid := range sortedGIDs(pending) {
			st := pending[gid]
			if !st.fresh {
				continue
			}
			t := c.rendezvous(gid)
			if t == c.Pos {
				combineAt(gid, st.acc)
			} else {
				nd.Send(c.nextHop(t), ncc.Message{Kind: kLAgg, A: gid, B: st.acc})
			}
			delete(pending, gid)
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				switch m.Kind {
				case kLReg:
					t := c.rendezvous(m.A)
					if t == c.Pos {
						regTarget[m.A] = m.IDs()[0]
					} else {
						regQueue = append(regQueue, regPkt{m.A, m.IDs()[0]})
					}
				case kLAgg:
					t := c.rendezvous(m.A)
					if t == c.Pos {
						combineAt(m.A, m.B)
					} else {
						st, ok := pending[m.A]
						if !ok {
							st = &aggState{acc: op.Neutral}
							pending[m.A] = st
						}
						st.acc = op.Combine(st.acc, m.B)
						st.fresh = true
					}
				case kLDeliver:
					results[m.A] = m.B
				}
			}
			return round(r + 1)
		})
	}
	return round(0)
}

// GroupToken is one (group, token) pair for multicast/collection.
type GroupToken struct {
	GID   int64
	Token int64
}

// LocalMulticast implements Theorem 7: each group's source token
// reaches every member. sources are this node's tokens (it is the source of
// those groups); memberOf lists the groups this node belongs to. k receives
// the token per subscribed group.
func LocalMulticast(nd *ncc.Node, c *LocalCtx, sources []GroupToken, memberOf []int64, k func(map[int64]int64) ncc.Op) ncc.Op {
	results := map[int64]int64{}
	// Subscription state: members route SUB packets toward rendezvous;
	// every node on the way remembers (gid → children) and forwards one SUB
	// per gid, building a reverse-path multicast tree. Tokens later flow
	// down those trees; served[gid] tracks which children have been fed, so
	// subscriptions that arrive after the token are still served.
	children := map[int64][]ncc.ID{}
	served := map[int64]int{}
	knownTok := map[int64]int64{}
	haveTok := map[int64]bool{}
	selfWant := map[int64]bool{}
	subSeen := map[int64]bool{}
	var subQueue []int64
	for _, gid := range memberOf {
		selfWant[gid] = true
		if !subSeen[gid] && c.rendezvous(gid) != c.Pos {
			subSeen[gid] = true
			subQueue = append(subQueue, gid)
		}
	}
	tokQueue := append([]GroupToken(nil), sources...)

	epoch := 2*ncc.CeilLog2(c.N) + 6
	budget := nd.Capacity() / 2
	if budget < 1 {
		budget = 1
	}
	learn := func(gid, tok int64) {
		if !haveTok[gid] {
			haveTok[gid] = true
			knownTok[gid] = tok
			if selfWant[gid] {
				results[gid] = tok
			}
		}
	}
	unserved := func() bool {
		//grlint:allow D001 -- order-independent any-predicate; no sends, result is a bool
		for gid := range haveTok {
			if served[gid] < len(children[gid]) {
				return true
			}
		}
		return false
	}
	var round func(r int) ncc.Op
	round = func(r int) ncc.Op {
		if r == epoch {
			busy := int64(0)
			if len(subQueue) > 0 || len(tokQueue) > 0 || unserved() {
				busy = 1
			}
			return AggregateBroadcast(nd, c.Tree, busy, OrOp(), func(anyBusy int64) ncc.Op {
				if anyBusy == 0 {
					return k(results)
				}
				return round(0)
			})
		}
		// Forward subscriptions.
		nSub := len(subQueue)
		if nSub > budget {
			nSub = budget
		}
		for i := 0; i < nSub; i++ {
			gid := subQueue[i]
			nd.Send(c.nextHop(c.rendezvous(gid)), ncc.Message{Kind: kLSub, A: gid})
		}
		subQueue = subQueue[nSub:]
		// Route source tokens toward rendezvous.
		nTok := len(tokQueue)
		if nTok > budget {
			nTok = budget
		}
		for i := 0; i < nTok; i++ {
			p := tokQueue[i]
			if c.rendezvous(p.GID) == c.Pos {
				learn(p.GID, p.Token)
			} else {
				nd.Send(c.nextHop(c.rendezvous(p.GID)), ncc.Message{Kind: kLTok, A: p.GID, B: p.Token})
			}
		}
		tokQueue = tokQueue[nTok:]
		// Feed unserved children of known tokens, throttled. Ascending
		// gid order matters: the budget decides which groups are served
		// this round, so map order would leak into round counts.
		sent := 0
		for _, gid := range sortedGIDs(haveTok) {
			kids := children[gid]
			for served[gid] < len(kids) && sent < budget {
				nd.Send(kids[served[gid]], ncc.Message{Kind: kLDeliver, A: gid, B: knownTok[gid]})
				served[gid]++
				sent++
			}
			if sent >= budget {
				break
			}
		}
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				switch m.Kind {
				case kLSub:
					children[m.A] = append(children[m.A], m.Src)
					if c.rendezvous(m.A) != c.Pos && !subSeen[m.A] {
						subSeen[m.A] = true
						subQueue = append(subQueue, m.A)
					}
				case kLTok:
					if c.rendezvous(m.A) == c.Pos {
						learn(m.A, m.B)
					} else {
						tokQueue = append(tokQueue, GroupToken{m.A, m.B})
					}
				case kLDeliver:
					learn(m.A, m.B)
				}
			}
			return round(r + 1)
		})
	}
	return round(0)
}

// LocalCollect implements Theorem 8: every member's token reaches the
// group's destination. tokens are this node's contributions; destOf the
// groups it collects. k receives the collected tokens per destination group.
func LocalCollect(nd *ncc.Node, c *LocalCtx, tokens []GroupToken, destOf []int64, k func(map[int64][]int64) ncc.Op) ncc.Op {
	results := map[int64][]int64{}
	regTarget := map[int64]ncc.ID{}
	type pkt struct {
		gid int64
		val int64
	}
	var tokQueue []pkt
	for _, t := range tokens {
		tokQueue = append(tokQueue, pkt{t.GID, t.Token})
	}
	type regPkt struct {
		gid  int64
		dest ncc.ID
	}
	var regQueue []regPkt
	for _, gid := range destOf {
		regQueue = append(regQueue, regPkt{gid, nd.ID()})
	}
	var rvHold []pkt // tokens parked at rendezvous awaiting registration

	epoch := 2*ncc.CeilLog2(c.N) + 6
	budget := nd.Capacity() / 2
	if budget < 1 {
		budget = 1
	}
	var round func(r int) ncc.Op
	round = func(r int) ncc.Op {
		if r == epoch {
			busy := int64(0)
			if len(tokQueue) > 0 || len(regQueue) > 0 || len(rvHold) > 0 {
				busy = 1
			}
			return AggregateBroadcast(nd, c.Tree, busy, OrOp(), func(anyBusy int64) ncc.Op {
				if anyBusy == 0 {
					return k(results)
				}
				return round(0)
			})
		}
		nReg := len(regQueue)
		if nReg > 2 {
			nReg = 2
		}
		for i := 0; i < nReg; i++ {
			p := regQueue[i]
			t := c.rendezvous(p.gid)
			if t == c.Pos {
				regTarget[p.gid] = p.dest
			} else {
				nd.Send(c.nextHop(t), ncc.Message{Kind: kLReg, A: p.gid}.WithIDs(p.dest))
			}
		}
		regQueue = regQueue[nReg:]
		// Ship tokens toward rendezvous / destinations, throttled.
		n := len(tokQueue)
		if n > budget {
			n = budget
		}
		for i := 0; i < n; i++ {
			p := tokQueue[i]
			t := c.rendezvous(p.gid)
			if t == c.Pos {
				rvHold = append(rvHold, p)
			} else {
				nd.Send(c.nextHop(t), ncc.Message{Kind: kLCollect, A: p.gid, B: p.val})
			}
		}
		tokQueue = tokQueue[n:]
		// Rendezvous forwards held tokens to registered destinations.
		var still []pkt
		sent := 0
		for _, p := range rvHold {
			dest, ok := regTarget[p.gid]
			if !ok || sent >= budget {
				still = append(still, p)
				continue
			}
			if dest == nd.ID() {
				results[p.gid] = append(results[p.gid], p.val)
			} else {
				nd.Send(dest, ncc.Message{Kind: kLDeliver, A: p.gid, B: p.val})
			}
			sent++
		}
		rvHold = still
		return ncc.Next(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
			for _, m := range w.Msgs {
				switch m.Kind {
				case kLReg:
					t := c.rendezvous(m.A)
					if t == c.Pos {
						regTarget[m.A] = m.IDs()[0]
					} else {
						regQueue = append(regQueue, regPkt{m.A, m.IDs()[0]})
					}
				case kLCollect:
					t := c.rendezvous(m.A)
					if t == c.Pos {
						rvHold = append(rvHold, pkt{m.A, m.B})
					} else {
						tokQueue = append(tokQueue, pkt{m.A, m.B})
					}
				case kLDeliver:
					results[m.A] = append(results[m.A], m.B)
				}
			}
			return round(r + 1)
		})
	}
	return round(0)
}
