// Package core implements the paper's primary contribution: distributed
// degree-sequence realization in the NCC model (§4).
//
//   - Realize runs the parallel Havel–Hakimi of Algorithm 3: per phase the
//     nodes re-sort by remaining degree, learn the maximum degree δ and its
//     multiplicity N by aggregation, split the first q·(δ+1) ranks into q
//     star groups, and each group's center multicasts its ID to its δ
//     members, who store the implicit overlay edge (Theorem 11).
//   - Envelope mode changes exactly the paper's Step 13 alteration: a member
//     whose remaining degree would go negative clamps to zero instead of
//     raising the alarm, yielding an upper-envelope realization with
//     Σd′ ≤ 2Σd (Theorem 13).
//   - MakeExplicit converts an implicit realization into an explicit one by
//     having every edge holder notify the other endpoint, randomly staggered
//     so per-round receive load stays within the node capacity w.h.p.
//     (Theorem 12; the paper routes this through the token-collection
//     primitive, which direct addressing subsumes here because every holder
//     already knows its endpoint's ID).
//
// The protocol is written for NCC0 and therefore also runs unchanged in
// NCC1 (the paper's Remark in §2).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"graphrealize/internal/aggregate"
	"graphrealize/internal/ncc"
	"graphrealize/internal/primitives"
	"graphrealize/internal/rankov"
	"graphrealize/internal/sortnet"
)

// Message kinds used by this package (0x70–0x7F block).
const (
	kNotify uint8 = 0x70 + iota
)

// Mode selects exact realization (Algorithm 3) or the upper-envelope variant
// of §4.3.
type Mode int

const (
	// Exact declares Unrealizable on non-graphic inputs (Theorem 11).
	Exact Mode = iota
	// Envelope clamps negative remainders to zero, realizing an upper
	// envelope D′ ≥ D with Σd′ ≤ 2Σd (Theorem 13).
	Envelope
)

// Env bundles the structural state shared by the realization protocols:
// the converted path, the structure L, the annotated TBFS on Gk, and the
// sorter. Build it once with Setup and reuse it across protocol stages.
type Env struct {
	Path primitives.Path
	Lv   primitives.Levels
	GK   primitives.Tree
	Sort sortnet.Sorter
}

// Setup builds the §3.1 structures on Gk and delivers the Env to k.
// Rounds: O(log n).
func Setup(nd *ncc.Node, method sortnet.Method, k func(*Env) ncc.Op) ncc.Op {
	return primitives.BuildAll(nd, func(p primitives.Path, lv primitives.Levels, t primitives.Tree) ncc.Op {
		env := &Env{Path: p, Lv: lv, GK: t}
		env.Sort = sortnet.Sorter{Method: method, Path: p, Pos: t.Pos, Tree: &env.GK}
		return k(env)
	})
}

// Outcome reports a node's view of the realization.
type Outcome struct {
	// OK is false when the instance was declared unrealizable (Exact mode).
	OK bool
	// Phases is the number of while-loop iterations executed (Lemma 10
	// bounds it by min{Δ, √m} + 1).
	Phases int
	// Realized is the node's degree in the realized graph: the edges it
	// stored as a member plus, if it served as a group center, the members
	// that stored it.
	Realized int
	// Delta is the maximum degree observed in the first phase (= Δ of the
	// input), useful to later stages.
	Delta int
	// Neighbors lists the IDs this node stored via AddEdge (the implicit
	// edges it is responsible for); MakeExplicit consumes it.
	Neighbors []ncc.ID
}

// Realize runs distributed degree realization and delivers the Outcome
// to k. deg is this node's required degree. active=false makes the node a
// bystander that participates in the global primitives but neither requests
// nor receives edges — the connectivity algorithm (§6.2) uses this to
// realize a degree sequence on only the d₀+1 core nodes while the rest of
// the network idles in lockstep.
//
// Edges are stored implicitly: each member stores its group center's ID via
// AddEdge. Centers do not store members (use MakeExplicit afterwards for
// an explicit realization).
func Realize(nd *ncc.Node, env *Env, deg int, mode Mode, active bool, k func(Outcome) ncc.Op) ncc.Op {
	n := nd.N()
	r := &realizeState{nd: nd, env: env, mode: mode, active: active, k: k, out: Outcome{OK: true}}
	r.checkedK, r.sortedK, r.deltaK, r.countK = r.checked, r.sorted, r.gotDelta, r.gotCount
	r.overlayK, r.groupsK = r.gotOverlay, r.gotGroups

	// Input validation. A degree outside [0, n−1] is unrealizable; Envelope
	// mode clamps it (an envelope cannot exceed n−1 either — the paper's
	// envelope guarantee presumes d ≤ n−1).
	r.myDeg = deg
	bad := int64(0)
	if deg < 0 || deg > n-1 {
		if mode == Exact && active {
			bad = 1
		}
		r.myDeg = min(max(deg, 0), n-1)
	}
	if !active {
		r.myDeg = 0
	}
	return r.agg.AggregateBroadcast(nd, &env.GK, bad, aggregate.OrOp(), r.checkedK)
}

// realizeState is one Realize call's per-node state. Each phase of the
// while loop runs sorted → gotDelta → gotCount → gotOverlay → gotGroups →
// checked, each the continuation of one primitive. The primitives' own
// state lives here too (and the sort's in env.Sort) and is reused by every
// phase, so a phase allocates nothing at the node beyond the edges it
// stores.
type realizeState struct {
	nd     *ncc.Node
	env    *Env
	mode   Mode
	active bool
	k      func(Outcome) ncc.Op
	out    Outcome

	myDeg    int  // remaining degree
	done     bool // true once this node served as a group center
	key      int64
	delta    int
	sr       sortnet.Result
	isCenter bool

	agg aggregate.Aggregator
	ov  rankov.Overlay
	dis rankov.Disseminator

	checkedK, deltaK, countK func(int64) ncc.Op
	sortedK                  func(sortnet.Result) ncc.Op
	overlayK                 func(*rankov.Overlay) ncc.Op
	groupsK                  func([]rankov.Job) ncc.Op
}

// checked ends the run if any node raised the alarm (on its input, or on a
// negative remainder in Step 13), and otherwise starts the next phase.
func (r *realizeState) checked(alarm int64) ncc.Op {
	if alarm == 1 {
		r.nd.Unrealizable()
		r.out.OK = false
		return r.k(r.out)
	}
	// Sort key: live active nodes by remaining degree; finished centers
	// sink to −1 and bystanders to −2, below any live zero-degree node.
	r.key = int64(r.myDeg)
	if r.done {
		r.key = -1
	}
	if !r.active {
		r.key = -2
	}
	return r.env.Sort.Sort(r.nd, r.key, r.sortedK)
}

// sorted learns δ, the current maximum remaining degree (Step 4 broadcast).
func (r *realizeState) sorted(sr sortnet.Result) ncc.Op {
	r.sr = sr
	return r.agg.AggregateBroadcast(r.nd, &r.env.GK, r.key, aggregate.MaxOp(), r.deltaK)
}

// gotDelta finishes once no degree remains, and otherwise counts N, the
// multiplicity of δ (Step 6 aggregation + broadcast).
func (r *realizeState) gotDelta(delta int64) ncc.Op {
	if delta < 1 {
		return r.k(r.out)
	}
	r.out.Phases++
	r.delta = int(delta)
	if r.out.Phases == 1 {
		r.out.Delta = r.delta
	}
	cnt := int64(0)
	if r.key == delta {
		cnt = 1
	}
	return r.agg.AggregateBroadcast(r.nd, &r.env.GK, cnt, aggregate.SumOp(), r.countK)
}

// gotCount lays out the star groups and builds the overlay the centers
// multicast over.
func (r *realizeState) gotCount(sum int64) ncc.Op {
	q := max(int(sum)/(r.delta+1), 1)
	// Group structure: centers at ranks α(δ+1) for α ∈ [0, q); each
	// center's members are the next δ ranks (Steps 7–10). The liveness
	// invariant (see DESIGN.md §4/T5 notes) guarantees every member rank
	// belongs to a live active node.
	rank := r.sr.Rank
	r.isCenter = !r.done && r.active && r.key >= 0 &&
		rank%(r.delta+1) == 0 && rank/(r.delta+1) < q
	return r.ov.Build(r.nd, rank, r.sr.Pred, r.sr.Succ, r.overlayK)
}

// gotOverlay has every center multicast its ID to its members.
func (r *realizeState) gotOverlay(ov *rankov.Overlay) ncc.Op {
	var job *rankov.Job
	if r.isCenter {
		job = &rankov.Job{Payload: r.nd.ID(), Lo: r.sr.Rank + 1, Hi: r.sr.Rank + r.delta}
	}
	return r.dis.Disseminate(r.nd, ov, &r.env.GK, job, r.groupsK)
}

// gotGroups stores the edge to every center that reached this node and
// raises Step 13's alarm on a negative remainder: everyone learns it in
// one aggregation.
func (r *realizeState) gotGroups(groups []rankov.Job) ncc.Op {
	neg := int64(0)
	for _, g := range groups {
		if g.Lo != r.sr.Rank {
			panic(fmt.Sprintf("core: rank %d received a group token for rank %d", r.sr.Rank, g.Lo))
		}
		r.nd.AddEdge(g.Payload)
		r.out.Neighbors = append(r.out.Neighbors, g.Payload)
		r.out.Realized++
		r.myDeg--
		if r.myDeg < 0 {
			if r.mode == Envelope {
				r.myDeg = 0
			} else {
				neg = 1
			}
		}
	}
	if r.isCenter {
		r.done = true
		r.myDeg = 0
		r.out.Realized += r.delta
	}
	return r.agg.AggregateBroadcast(r.nd, &r.env.GK, neg, aggregate.OrOp(), r.checkedK)
}

// MakeExplicit converts the implicit realization into an explicit one:
// every node that stored an edge notifies the other endpoint of its own ID,
// and the endpoint stores the reverse edge. Sends are randomly staggered over
// a window of ~4Δ/capacity rounds so that receive load stays within capacity
// w.h.p. (Theorem 12's O(m/n + Δ/log n + log n) shape).
//
// neighbors must be exactly the IDs this node stored via AddEdge during
// Realize; delta the maximum degree (Outcome.Delta, identical at all
// nodes). The number of reverse edges stored is delivered to k.
func MakeExplicit(nd *ncc.Node, env *Env, neighbors []ncc.ID, delta int, k func(int) ncc.Op) ncc.Op {
	capi := nd.Capacity()
	budget := max(capi/2, 1)
	window := (4*delta)/capi + 4
	// Schedule each notification in a uniformly random round of the window.
	// All randomness is drawn before the first suspension, so the schedule is
	// identical across scheduler drivers. A stable sort by round puts the
	// notifications in the order they are sent: by round, and within a round
	// in neighbor order.
	plan := make([]notice, len(neighbors))
	for i, nb := range neighbors {
		plan[i] = notice{round: nd.Rand().Intn(window), to: nb}
	}
	slices.SortStableFunc(plan, func(a, b notice) int { return cmp.Compare(a.round, b.round) })
	// Every node stored at most Δ edges, so a backlog drains within
	// ⌈Δ/budget⌉ rounds; the total schedule length is common knowledge and
	// all nodes run it in lockstep.
	s := &explicitState{plan: plan, budget: budget, total: window + delta/budget + 4, k: k}
	return s.send(nd)
}

// notice is one scheduled notification: the round it becomes due and the
// endpoint to notify.
type notice struct {
	round int
	to    ncc.ID
}

// explicitState is one MakeExplicit call's per-node state, and its
// continuation: plan[:sent] has been sent, plan[sent:due] is the backlog
// due by round r.
type explicitState struct {
	plan             []notice
	sent, due        int
	r, total, budget int
	stored           int
	k                func(int) ncc.Op
}

// send notifies up to budget endpoints from the backlog due by round r, or
// delivers the count once the schedule has run.
func (s *explicitState) send(nd *ncc.Node) ncc.Op {
	if s.r >= s.total {
		if s.sent < len(s.plan) {
			panic(fmt.Sprintf("core: MakeExplicit backlog not drained (%d left of %d, window %d)",
				len(s.plan)-s.sent, len(s.plan), s.total))
		}
		return s.k(s.stored)
	}
	for s.due < len(s.plan) && s.plan[s.due].round <= s.r {
		s.due++
	}
	end := min(s.due, s.sent+s.budget)
	for _, nt := range s.plan[s.sent:end] {
		nd.Send(nt.to, ncc.Message{Kind: kNotify})
	}
	s.sent = end
	return ncc.Next(s)
}

// Resume stores the reverse edge of every notification.
func (s *explicitState) Resume(nd *ncc.Node, in []ncc.Message) ncc.Op {
	for _, m := range in {
		if m.Kind == kNotify {
			nd.AddEdge(m.Src)
			s.stored++
		}
	}
	s.r++
	return s.send(nd)
}
