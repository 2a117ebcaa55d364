// Package ncc implements the Node Capacitated Clique (NCC) model of
// distributed computing introduced by Augustine et al. (SPAA 2019) and used by
// "Distributed Graph Realizations" (IPDPS 2020) as its execution model.
//
// The model comprises n nodes with unique IDs that communicate in synchronous
// rounds. Any node u can send a message to any node v provided u knows v's ID
// (think of the ID as v's IP address). Per round, a node may send and receive
// at most O(log n) messages of O(log n) bits each. The simulator supports the
// two knowledge variants from the paper:
//
//   - NCC0: each node initially knows only the ID of its successor in a
//     directed path Gk (the initial knowledge graph). Knowledge grows only by
//     receiving messages: a receiver learns the sender's ID and any IDs
//     carried in the payload.
//   - NCC1: all nodes know all IDs from the start (IDs are w.l.o.g. 1..n).
//
// Protocols are written in resumable-step form (program.go): a node's
// compute slice for a round sends its messages and returns the suspension it
// wants, carrying the continuation (a Cont) to resume when it wakes:
//
//	func proto(nd *ncc.Node) ncc.Op {
//	    nd.Send(nd.InitialSucc(), ncc.Message{Kind: hello})
//	    return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, w ncc.Wake) ncc.Op {
//	        // w.Msgs holds the messages delivered this round.
//	        ...
//	        return ncc.Done()
//	    }))
//	}
//
// A protocol that runs many rounds, or runs again and again, keeps its
// per-node state in a struct that is its own continuation: its Resume method
// dispatches on a phase field, and a pointer to it suspends the node without
// allocating. The caller owns such a struct and may reuse it for the next
// call once the previous one has delivered.
//
// Each node gets one integer input (Config.Inputs), its degree or threshold.
// A primitive whose round cost has an analytic bound, such as the sort of
// Theorem 3, may instead run centrally as a Collective: a value the protocol
// holds and every live node enters with Node.Enter in the same round, after
// which the engine charges the bound's rounds.
//
// Sim.RunProgram steps every node on the calling goroutine and enforces the
// model: it validates knowledge on send, counts capacity on both ends,
// advances rounds, fast-forwards rounds in which every node sleeps, detects
// deadlock and runaway protocols, and produces a Trace with
// round/message/congestion metrics plus each node's declared outputs and
// stored overlay edges. Runs are deterministic for a fixed Config.Seed.
package ncc

import "fmt"

// ID identifies a node. IDs are drawn from [1, n^2] in NCC0 (arbitrary,
// non-contiguous, in arbitrary path order) and are exactly 1..n in NCC1,
// matching the paper's "w.l.o.g." normalization. The zero ID is never a valid
// node and marks "no node" (e.g. the tail's successor).
type ID int64

// None is the zero ID, used to mean "no such node".
const None ID = 0

// Model selects the initial-knowledge variant of the NCC model.
type Model int

const (
	// NCC0 gives each node only the ID of its Gk successor initially.
	NCC0 Model = iota
	// NCC1 gives every node the IDs of all nodes initially.
	NCC1
)

// String returns the conventional name of the model variant.
func (m Model) String() string {
	switch m {
	case NCC0:
		return "NCC0"
	case NCC1:
		return "NCC1"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1, and 0 for n ≤ 1.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// CeilLog2 exposes ⌈log₂ n⌉ for use by protocol packages that need the same
// level count as the simulator (e.g. the structure-L construction).
func CeilLog2(n int) int { return ceilLog2(n) }
