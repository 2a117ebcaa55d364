// Package graphrealize is a Go implementation of "Distributed Graph
// Realizations" (Augustine, Choudhary, Cohen, Peleg, Sivasubramaniam,
// Sourav — IPDPS 2020): distributed construction of overlay networks that
// realize degree sequences, tree degree sequences, and pairwise
// edge-connectivity thresholds in the Node Capacitated Clique (NCC) model.
//
// The package is a facade over an executable NCC simulator: every call
// simulates n nodes, each stepping the paper's distributed algorithm round by
// round under the model's knowledge and capacity rules, and returns the
// realized overlay together with the round/message statistics that are the
// paper's figures of merit. The whole simulation runs on the calling
// goroutine; it starts no goroutine per node.
//
//	g, stats, err := graphrealize.RealizeDegrees([]int{3, 3, 2, 2, 2, 2}, nil)
//	// g.Adj is the realized overlay; stats.Rounds its round complexity.
//
// The heavy lifting lives in internal packages: internal/ncc (the model),
// internal/primitives and internal/aggregate (§3 toolbox), internal/core
// (§4 degree realization), internal/trees (§5), internal/connectivity (§6),
// and internal/seq (sequential baselines). See DESIGN.md for the map.
package graphrealize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"graphrealize/internal/connectivity"
	"graphrealize/internal/core"
	"graphrealize/internal/gen"
	"graphrealize/internal/graph"
	"graphrealize/internal/ncc"
	"graphrealize/internal/seq"
	"graphrealize/internal/sortnet"
	"graphrealize/internal/trees"
	"graphrealize/internal/verify"
)

// Model selects the NCC knowledge variant (§2 of the paper).
type Model int

const (
	// NCC0 gives each node only its successor in the knowledge path Gk.
	NCC0 Model = iota
	// NCC1 gives every node all IDs (the SPAA'19 NCC model).
	NCC1
)

// SortMethod selects the §3.1.2 sorting implementation used inside the
// realization algorithms.
type SortMethod int

const (
	// OracleSort executes the sort centrally and charges the Theorem 3
	// round bound ⌈log₂ n⌉³ — the default, keeping large runs fast while
	// round accounting stays faithful.
	OracleSort SortMethod = iota
	// OddEvenSort runs a real O(n)-round transposition sort protocol (the
	// naive baseline ablation).
	OddEvenSort
	// MergeSort runs the paper's real O(log³ n) merge-sort protocol
	// (Algorithm 2 / Theorem 3).
	MergeSort
)

// Options tunes a realization run. The zero value (or nil) is a sensible
// default: NCC0, seed 0, strict capacity checking off, oracle sorting.
type Options struct {
	// Model is the knowledge variant to run under.
	Model Model
	// Seed makes runs deterministic; different seeds vary IDs, the Gk
	// permutation and the protocols' internal randomness.
	Seed int64
	// Strict turns capacity violations into errors (ErrBadInput) instead of
	// statistics.
	Strict bool
	// CapMul scales the per-round message budget (default 8·⌈log₂ n⌉).
	CapMul int
	// Sort selects the sorting subroutine implementation.
	Sort SortMethod
	// MaxRounds aborts runaway protocols (default 50M); a run that exceeds
	// it fails with ErrBadInput.
	MaxRounds int
	// Progress, when non-nil, receives (rounds completed, messages delivered)
	// at every round barrier of the run — the hook long-running services use
	// to stream round-level progress. It is invoked on the goroutine running
	// the simulation and must be fast and non-blocking. Progress does not
	// affect the result and is excluded from Runner cache keys: a job served
	// from the cache completes without any progress callbacks.
	Progress func(round, msgs int)
	// Profile, when non-nil, receives every completed round's wall-time split
	// into compute, delivery, and barrier phases — the observability hook the
	// server uses to feed its engine phase histograms. Like Progress it runs
	// on the goroutine running the simulation, must be fast, never affects the
	// result (timings stay out of Stats and traces), and is excluded from
	// Runner cache keys: a job served from the cache reports no phases.
	Profile func(compute, delivery, barrier time.Duration)
}

// Stats reports the cost of a run in the NCC model's currency.
type Stats struct {
	N             int   // nodes
	Rounds        int   // total synchronous rounds (incl. charged)
	ChargedRounds int   // rounds charged by oracle collectives (⊆ Rounds)
	Messages      int64 // messages delivered
	Capacity      int   // per-node per-round message budget
	MaxSent       int   // max messages sent by one node in one round
	MaxRecv       int   // max messages received by one node in one round
	CapViolations int   // (node, round) pairs exceeding the budget
	Phases        int   // Havel–Hakimi phases (degree realizations only)
}

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d rounds=%d (charged %d) msgs=%d cap=%d maxRecv=%d viol=%d",
		s.N, s.Rounds, s.ChargedRounds, s.Messages, s.Capacity, s.MaxRecv, s.CapViolations)
}

// Errors returned by the realization entry points.
var (
	// ErrUnrealizable reports that the input admits no realization (the
	// distributed algorithm's Unrealizable broadcast).
	ErrUnrealizable = errors.New("graphrealize: sequence is not realizable")
	// ErrBadInput reports malformed input (empty sequence, wrong length) or
	// options too tight for the job: a MaxRounds cap it exceeds, which wraps
	// ncc.ErrMaxRounds, or a Strict run's capacity violation, which wraps
	// ncc.ErrCapacity.
	ErrBadInput = errors.New("graphrealize: invalid input")
)

// Graph is the realized overlay: vertex i is the node that was assigned
// input i, Adj its sorted adjacency lists, one per vertex (len(Adj) == N).
// The analysis methods read the lists in place.
type Graph struct {
	N   int
	Adj [][]int
}

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, a := range g.Adj {
		total += len(a)
	}
	return total / 2
}

// Degrees returns the degree of every vertex.
func (g *Graph) Degrees() []int {
	d := make([]int, g.N)
	for v, a := range g.Adj {
		d[v] = len(a)
	}
	return d
}

// Edges returns all edges as (u < v) pairs in deterministic order; nil for
// an edgeless graph.
func (g *Graph) Edges() [][2]int {
	var es [][2]int
	if m := g.M(); m > 0 {
		es = make([][2]int, 0, m)
	}
	for u, a := range g.Adj {
		for _, v := range a {
			if v > u {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// Diameter returns the exact diameter (-1 if disconnected).
func (g *Graph) Diameter() int { return graph.FromAdj(g.Adj).Diameter() }

// TreeDiameter returns the diameter via two BFS passes — exact for trees and
// much cheaper than Diameter's all-sources sweep. It panics if the overlay
// is not a tree.
func (g *Graph) TreeDiameter() int { return graph.FromAdj(g.Adj).TreeDiameter() }

// IsTree reports whether the overlay is a tree.
func (g *Graph) IsTree() bool { return graph.FromAdj(g.Adj).IsTree() }

// Connected reports whether the overlay is connected.
func (g *Graph) Connected() bool { return graph.FromAdj(g.Adj).Connected() }

// EdgeConnectivity returns the number of pairwise edge-disjoint paths
// between u and v (Menger), via max-flow.
func (g *Graph) EdgeConnectivity(u, v int) int { return graph.FromAdj(g.Adj).EdgeConnectivity(u, v) }

// IsGraphic reports whether d is realizable by a simple graph
// (Erdős–Gallai).
func IsGraphic(d []int) bool { return seq.IsGraphic(d) }

// IsTreeSequence reports whether d is realizable by a tree.
func IsTreeSequence(d []int) bool { return seq.IsTreeSequence(d) }

// MakeGraphic repairs an arbitrary non-negative sequence into a graphic one
// while preserving its shape (see internal/gen).
func MakeGraphic(d []int) []int { return gen.MakeGraphic(d) }

func (o *Options) norm() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

func (o Options) simConfig(ctx context.Context, n int, inputs []any) ncc.Config {
	model := ncc.NCC0
	if o.Model == NCC1 {
		model = ncc.NCC1
	}
	return ncc.Config{
		N:         n,
		Model:     model,
		Seed:      o.Seed,
		CapMul:    o.CapMul,
		Strict:    o.Strict,
		MaxRounds: o.MaxRounds,
		Inputs:    inputs,
		Stop:      ctx.Done(),
		Progress:  o.Progress,
		Profile:   o.Profile,
	}
}

// mapRunErr translates the engine's sentinels into the facade's vocabulary.
// Cancellation becomes the context's own error, so callers can match
// context.Canceled / context.DeadlineExceeded. An exceeded MaxRounds and a
// Strict run's capacity violation are the caller's options being too tight
// for its job, so both are wrapped in ErrBadInput.
func mapRunErr(ctx context.Context, err error) error {
	switch {
	case errors.Is(err, ncc.ErrCanceled):
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	case errors.Is(err, ncc.ErrMaxRounds), errors.Is(err, ncc.ErrCapacity):
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return err
}

func (o Options) sortMethod() sortnet.Method {
	switch o.Sort {
	case OddEvenSort:
		return sortnet.OddEven
	case MergeSort:
		return sortnet.Merge
	default:
		return sortnet.Oracle
	}
}

func statsOf(tr *ncc.Trace) *Stats {
	return &Stats{
		N:             tr.Metrics.N,
		Rounds:        tr.Metrics.Rounds,
		ChargedRounds: tr.Metrics.CollectiveRounds,
		Messages:      tr.Metrics.Messages,
		Capacity:      tr.Metrics.Capacity,
		MaxSent:       tr.Metrics.MaxSentPerRound,
		MaxRecv:       tr.Metrics.MaxRecvPerRound,
		CapViolations: tr.Metrics.SendViolations + tr.Metrics.RecvViolations,
	}
}

func toInputs(d []int) []any {
	inputs := make([]any, len(d))
	for i, v := range d {
		inputs[i] = v
	}
	return inputs
}

// RealizeDegrees runs the distributed Havel–Hakimi of §4.1 (Theorem 11) and
// returns the implicit realization of d (d[i] is the degree required by
// vertex i). It returns ErrUnrealizable when d is not graphic.
func RealizeDegrees(d []int, opt *Options) (*Graph, *Stats, error) {
	res := Execute(context.Background(), Job{Kind: JobDegrees, Seq: d, Opt: opt})
	return res.Graph, res.Stats, res.Err
}

// RealizeDegreesExplicit additionally converts the realization to explicit
// form (§4.2, Theorem 12): both endpoints of every edge know it.
func RealizeDegreesExplicit(d []int, opt *Options) (*Graph, *Stats, error) {
	res := Execute(context.Background(), Job{Kind: JobDegreesExplicit, Seq: d, Opt: opt})
	return res.Graph, res.Stats, res.Err
}

// RealizeUpperEnvelope runs the §4.3 variant (Theorem 13): it always
// succeeds, realizing an upper envelope d′ ≥ d with Σd′ ≤ 2Σd (after
// clamping d into [0, n−1]). It returns the realized graph and the envelope
// degrees d′ (indexed like d).
func RealizeUpperEnvelope(d []int, opt *Options) (*Graph, []int, *Stats, error) {
	res := Execute(context.Background(), Job{Kind: JobUpperEnvelope, Seq: d, Opt: opt})
	return res.Graph, res.Envelope, res.Stats, res.Err
}

// RealizeTree runs Algorithm 4 (§5, Theorem 14), realizing a tree sequence
// as a maximum-diameter chain-plus-leaves tree.
func RealizeTree(d []int, opt *Options) (*Graph, *Stats, error) {
	res := Execute(context.Background(), Job{Kind: JobChainTree, Seq: d, Opt: opt})
	return res.Graph, res.Stats, res.Err
}

// RealizeMinDiameterTree runs Algorithm 5 (§5, Theorem 16): the greedy tree
// T_G, whose diameter is minimum over all tree realizations of d (Lemma 15).
func RealizeMinDiameterTree(d []int, opt *Options) (*Graph, *Stats, error) {
	res := Execute(context.Background(), Job{Kind: JobMinDiamTree, Seq: d, Opt: opt})
	return res.Graph, res.Stats, res.Err
}

// RealizeConnectivity builds an overlay meeting pairwise edge-connectivity
// thresholds (§6): Conn(u,v) ≥ min(rho[u], rho[v]) with at most Σρ edges (a
// 2-approximation). Under NCC1 it runs the O~(1) implicit algorithm of
// Theorem 17; under NCC0 the explicit O~(Δ) Algorithm 6 of Theorem 18.
func RealizeConnectivity(rho []int, opt *Options) (*Graph, *Stats, error) {
	res := Execute(context.Background(), Job{Kind: JobConnectivity, Seq: rho, Opt: opt})
	return res.Graph, res.Stats, res.Err
}

// Execute runs one job: the one place a realization is simulated, behind
// the RealizeX entry points and every Runner. It honours ctx: cancellation
// or deadline expiry aborts the simulation between rounds and yields a
// Result whose Err is the context's error.
func Execute(ctx context.Context, j Job) Result {
	res := Result{Job: j}
	if j.Kind < JobDegrees || j.Kind > JobConnectivity {
		res.Err = fmt.Errorf("graphrealize: unknown JobKind %d", int(j.Kind))
		return res
	}
	if len(j.Seq) == 0 {
		res.Err = ErrBadInput
		return res
	}
	// The per-node continuations capture the kind alone, not the whole Job.
	kind, o := j.Kind, j.Opt.norm()
	s := ncc.New(o.simConfig(ctx, len(j.Seq), toInputs(j.Seq)))
	sortnet.RegisterOracle(s)
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		r := nd.Input().(int)
		// NCC1 connectivity (Theorem 17) needs no sorted setup.
		if kind == JobConnectivity && nd.Model() == ncc.NCC1 {
			return connectivity.RealizeNCC1(nd, r, func(connectivity.Outcome) ncc.Op { return ncc.Done() })
		}
		return core.Setup(nd, o.sortMethod(), func(env *core.Env) ncc.Op {
			switch kind {
			case JobDegrees, JobDegreesExplicit:
				return core.Realize(nd, env, r, core.Exact, true, func(out core.Outcome) ncc.Op {
					nd.SetOutput("phases", int64(out.Phases))
					if out.OK && kind == JobDegreesExplicit {
						return core.MakeExplicit(nd, env, out.Neighbors, out.Delta, func(int) ncc.Op { return ncc.Done() })
					}
					return ncc.Done()
				})
			case JobUpperEnvelope:
				return core.Realize(nd, env, r, core.Envelope, true, func(out core.Outcome) ncc.Op {
					nd.SetOutput("realized", int64(out.Realized))
					nd.SetOutput("phases", int64(out.Phases))
					return ncc.Done()
				})
			case JobChainTree:
				return trees.RealizeChain(nd, env, r, func(trees.Outcome) ncc.Op { return ncc.Done() })
			case JobMinDiamTree:
				return trees.RealizeGreedy(nd, env, r, func(trees.Outcome) ncc.Op { return ncc.Done() })
			}
			return connectivity.RealizeNCC0(nd, env, r, func(connectivity.Outcome) ncc.Op { return ncc.Done() })
		})
	})
	if err != nil {
		res.Err = mapRunErr(ctx, err)
		return res
	}
	res.Stats = statsOf(tr)
	// Only the degree realizations report Havel–Hakimi phases.
	if v, ok := tr.MaxOutput("phases"); ok {
		res.Stats.Phases = int(v)
	}
	switch {
	case kind == JobUpperEnvelope:
		res.Envelope = make([]int, len(j.Seq))
		for i, id := range tr.IDs {
			v, _ := tr.Output(id, "realized")
			res.Envelope[i] = int(v)
		}
	case tr.Unrealizable:
		res.Err = ErrUnrealizable
		return res
	}
	res.Graph = &Graph{N: len(tr.IDs), Adj: tr.Adjacency()}
	return res
}

// Verify checks r against the paper's definition of a correct result for
// its job's kind, through the internal/verify oracle (DESIGN.md §8). A
// degree realization must also stay within 2·min{⌊√m⌋, Δ}+2 phases (Lemma
// 10). ErrUnrealizable is correct exactly when the sequential reference
// rejects the input; Verify returns any other job error unchanged.
func (r Result) Verify() error {
	d, kind := r.Job.Seq, r.Job.Kind
	rejects := false
	switch kind {
	case JobDegrees, JobDegreesExplicit:
		rejects = !seq.IsGraphic(d)
	case JobChainTree, JobMinDiamTree:
		rejects = !seq.IsTreeSequence(d)
	case JobConnectivity:
		rejects = slices.ContainsFunc(d, func(rho int) bool { return rho < 0 || rho > len(d)-1 })
	}
	if r.Err != nil && !errors.Is(r.Err, ErrUnrealizable) {
		return r.Err
	}
	if rejected := r.Err != nil; rejected != rejects {
		return fmt.Errorf("graphrealize: %s job on %v: ErrUnrealizable=%v, but the sequential reference says unrealizable=%v", kind, d, rejected, rejects)
	}
	if rejects {
		return nil
	}
	if r.Graph == nil || r.Stats == nil || r.Graph.N != len(r.Graph.Adj) {
		return fmt.Errorf("graphrealize: %s result lacks its stats or a graph with N adjacency lists", kind)
	}
	adj := r.Graph.Adj
	switch kind {
	case JobDegrees, JobDegreesExplicit:
		m := seq.SumDegrees(d) / 2
		if bound := 2*min(int(math.Sqrt(float64(m))), seq.MaxDegree(d)) + 2; r.Stats.Phases > bound {
			return fmt.Errorf("graphrealize: %d phases above Lemma 10's bound %d", r.Stats.Phases, bound)
		}
		return verify.Degrees(adj, d)
	case JobUpperEnvelope:
		return verify.Envelope(adj, d, r.Envelope)
	case JobChainTree:
		return verify.ChainTree(adj, d)
	case JobMinDiamTree:
		return verify.MinDiamTree(adj, d)
	case JobConnectivity:
		return verify.Connectivity(adj, d)
	}
	return fmt.Errorf("graphrealize: unknown JobKind %d", int(kind))
}

// ConnectivityLowerBound returns ⌈Σρ/2⌉, the minimum edge count of any
// graph meeting the thresholds (the 2-approximation's denominator).
func ConnectivityLowerBound(rho []int) int { return seq.ConnectivityLowerBound(rho) }

// HavelHakimi is the sequential baseline of §3.3: it realizes d centrally,
// or returns ErrUnrealizable.
func HavelHakimi(d []int) (*Graph, error) { return baseline(seq.HavelHakimi(d)) }

// GreedyTree is the sequential minimum-diameter tree baseline (Lemma 15).
func GreedyTree(d []int) (*Graph, error) { return baseline(seq.GreedyTree(d)) }

// ChainTree is the sequential Algorithm 4 baseline.
func ChainTree(d []int) (*Graph, error) { return baseline(seq.ChainTree(d)) }

// baseline hands out a sequential baseline's own adjacency lists, sorted in
// place, or ErrUnrealizable when the baseline found no realization.
func baseline(g *graph.Graph, ok bool) (*Graph, error) {
	if !ok {
		return nil, ErrUnrealizable
	}
	adj := g.Adj()
	for _, a := range adj {
		slices.Sort(a)
	}
	return &Graph{N: len(adj), Adj: adj}, nil
}

// MinTreeDiameter returns the minimum diameter over all tree realizations
// of d (−1 if d is not a tree sequence).
func MinTreeDiameter(d []int) int { return seq.MinTreeDiameter(d) }
