package ncc

import (
	"errors"
	"math/rand"
	"slices"
	"time"
)

// sim.go is the engine's front door: configuration and instance
// construction. The step-form protocol vocabulary and the RunProgram entry
// point live in program.go, the round loop in engine.go, message routing in
// delivery.go, and result assembly in trace.go.

// Config parameterizes a simulation.
type Config struct {
	// N is the number of nodes (≥ 1).
	N int
	// Model selects NCC0 (default) or NCC1 initial knowledge.
	Model Model
	// Seed makes the run deterministic: node IDs, the Gk permutation and all
	// per-node random sources derive from it.
	Seed int64
	// CapMul scales the per-round capacity: capacity = CapMul·⌈log₂ N⌉
	// (minimum 1). Zero selects DefaultCapMul.
	CapMul int
	// Strict turns capacity violations into run errors instead of metrics.
	Strict bool
	// MaxRounds aborts runaway protocols. Zero selects DefaultMaxRounds.
	MaxRounds int
	// Inputs, if non-nil, assigns Inputs[i] to the node at Gk position i.
	Inputs []int
	// Stop, if non-nil, aborts the run when it becomes readable (typically a
	// context's Done channel). The engine checks it once per barrier, retires
	// every suspended node, and RunProgram returns ErrCanceled. Cancellation
	// is cooperative at round granularity: a run stops between rounds, never
	// mid-round.
	Stop <-chan struct{}
	// Progress, if non-nil, is invoked at the same per-barrier point that
	// polls Stop, with the number of rounds completed and messages delivered
	// so far. It runs on the goroutine that called RunProgram, between two
	// rounds' steps, so it needs no synchronization with the protocol — but
	// it executes inside the round loop and must return quickly without
	// blocking; a slow hook stretches every round.
	Progress func(round, msgs int)
	// Profile, if non-nil, receives every completed round's wall-time split
	// into compute (node steps running), delivery (message routing), and
	// barrier (remaining engine bookkeeping: partitioning, collectives, round
	// advance). It fires immediately before the next round's steps, so —
	// like Progress — it needs no synchronization with the protocol but must
	// return quickly. The timings are observational wall-clock measurements:
	// they never enter the Trace or Metrics, so profiled and unprofiled runs
	// of the same Config produce byte-identical traces (see
	// sched_conformance_test.go). The final partial round of a run (the slice
	// in which every node finishes, or an aborting error) is not reported.
	// See DESIGN.md §10 for phase attribution.
	Profile func(compute, delivery, barrier time.Duration)
	// OrderedIDs forces node IDs to be assigned in increasing order along the
	// Gk path (IDs are still random in NCC0 unless Model is NCC1). Figures in
	// the paper use this layout; by default the path order is a random
	// permutation of random IDs.
	OrderedIDs bool
}

// DefaultCapMul is the default capacity multiplier. The paper's algorithms
// send O(log n) messages per round; a multiplier of 8 absorbs the constants
// of every protocol in this repository in strict mode.
const DefaultCapMul = 8

// DefaultMaxRounds bounds a run to guard against livelocked protocols.
const DefaultMaxRounds = 50_000_000

// ErrDeadlock is returned when every live node is waiting for a message and
// none is in flight.
var ErrDeadlock = errors.New("ncc: deadlock: all live nodes await messages and none are in flight")

// ErrCanceled is returned when Config.Stop aborts a run before the protocol
// completes.
var ErrCanceled = errors.New("ncc: run canceled")

// ErrMaxRounds is returned, wrapped with the limit ("…=50"), when a run
// exceeds Config.MaxRounds.
var ErrMaxRounds = errors.New("ncc: exceeded MaxRounds")

// ErrCapacity is matched, through errors.Is, by the error of a Strict run in
// which a node sent or received more messages in one round than its
// capacity allows.
var ErrCapacity = errors.New("ncc: capacity exceeded")

// capacityError is a strict-mode violation: its text names the round and
// the offending count, and it matches ErrCapacity.
type capacityError string

func (e capacityError) Error() string { return string(e) }

func (capacityError) Is(target error) bool { return target == ErrCapacity }

// Sim is a single NCC simulation instance. Create with New, then call
// RunProgram exactly once.
type Sim struct {
	cfg      Config
	n        int
	capacity int

	ids    []ID    // Gk order
	index  idTable // ID → Gk position
	allIDs []ID    // sorted, shared in NCC1
	nodes  []*Node

	entry Proto     // the protocol RunProgram steps
	del   *delivery // message routing

	// engine state (engine.go)
	round       int
	active      []*Node  // nodes woken for the current round, in Gk order
	nextScratch []*Node  // reusable buffer for nextActive
	wake        []uint64 // the next round's active set: one bit per Gk index
	awaiting    int      // nodes in stateAwait
	sleepers    sleepHeap
	doneCnt     int

	sendViol int     // send-capacity violations in the current round
	entered  []*Node // the nodes that entered a collective this round, reused
	collIns  []int64 // the inputs runCollective hands a Collective, reused

	met      Metrics
	firstErr error
}

// New creates a simulation with n nodes arranged on a directed path Gk.
func New(cfg Config) *Sim {
	if cfg.N < 1 {
		panic("ncc: Config.N must be ≥ 1")
	}
	if cfg.CapMul == 0 {
		cfg.CapMul = DefaultCapMul
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	n := cfg.N
	capacity := cfg.CapMul * ceilLog2(n)
	if capacity < cfg.CapMul {
		capacity = cfg.CapMul
	}
	s := &Sim{
		cfg:      cfg,
		n:        n,
		capacity: capacity,
		wake:     make([]uint64, (n+63)/64),
	}
	s.assignIDs()
	// One array holds every Node, in Gk order, the order rounds step them.
	nodes := make([]Node, n)
	s.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := &nodes[i]
		*nd = Node{sim: s, id: s.ids[i], idx: i}
		if i+1 < n {
			nd.initialSucc = s.ids[i+1]
			nd.Learn(nd.initialSucc)
		}
		if cfg.Inputs != nil && i < len(cfg.Inputs) {
			nd.input = cfg.Inputs[i]
		}
		s.nodes[i] = nd
	}
	s.del = newDelivery(s.nodes, capacity, cfg.Strict)
	s.met = Metrics{N: n, Capacity: capacity, CollectiveCalls: make(map[string]int)}
	return s
}

// assignIDs draws distinct IDs and fixes the Gk path order.
func (s *Sim) assignIDs() {
	n := s.n
	rng := rand.New(rand.NewSource(mix64(s.cfg.Seed, 0x1D5)))
	s.ids = make([]ID, n)
	if s.cfg.Model == NCC1 {
		// IDs are w.l.o.g. 1..n; the path order is still a permutation.
		for i := range s.ids {
			s.ids[i] = ID(i + 1)
		}
	} else {
		// Distinct random IDs from [1, 4n²] (the paper draws from [1, n^c]).
		span := int64(4*n)*int64(n) + 1
		seen := make(map[ID]struct{}, n)
		for i := 0; i < n; i++ {
			for {
				id := ID(rng.Int63n(span) + 1)
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					s.ids[i] = id
					break
				}
			}
		}
	}
	if !s.cfg.OrderedIDs {
		rng.Shuffle(n, func(i, j int) { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] })
	} else {
		slices.Sort(s.ids)
	}
	s.index = newIDTable(s.ids)
	s.allIDs = make([]ID, n)
	copy(s.allIDs, s.ids)
	slices.Sort(s.allIDs)
}

// IDs returns the node IDs in Gk (path) order. The slice is shared.
func (s *Sim) IDs() []ID { return s.ids }

// N returns the node count.
func (s *Sim) N() int { return s.n }

// Capacity returns the per-node per-round message budget.
func (s *Sim) Capacity() int { return s.capacity }

// mix64 is a splitmix64-style mixer for deterministic seed derivation.
func mix64(a, b int64) int64 {
	z := uint64(a)*0x9E3779B97F4A7C15 + uint64(b) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	v := int64(z)
	if v == 0 {
		v = 1
	}
	return v
}
