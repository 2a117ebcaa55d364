package ncc

import "fmt"

// Metrics aggregates the cost accounting of a simulation run. Rounds is the
// primary figure of merit in the NCC model; message counts and congestion
// statistics support the capacity analysis.
//
// Metrics is deliberately wall-clock-free: every field is a deterministic
// function of the Config, so every run of a Config reproduces its trace byte
// for byte (sched_conformance_test.go). Wall-time observability — per-phase
// round profiling — flows through Config.Profile instead and never lands
// here.
type Metrics struct {
	N        int   // number of nodes
	Capacity int   // per-node per-round send/recv message budget
	Rounds   int   // synchronous rounds elapsed (including charged rounds)
	Messages int64 // total messages delivered

	MaxSentPerRound int // max messages sent by any node in any round
	MaxRecvPerRound int // max messages received by any node in any round

	SendViolations int // messages sent beyond the per-node per-round capacity
	RecvViolations int // (node,round) pairs exceeding the receive capacity

	// CollectiveCalls counts invocations of each collective operation by
	// its Name (e.g. the oracle sort), and CollectiveRounds the rounds
	// charged for them. Both are folded into Rounds already; they are
	// reported separately so results remain honest about which portion of
	// the round count was executed as a real protocol.
	CollectiveCalls  map[string]int
	CollectiveRounds int

	// ActiveNodeRounds counts, over all rounds, how many nodes were awake —
	// a work measure useful for the HPC-style efficiency benchmarks.
	ActiveNodeRounds int64
}

// String renders a compact single-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("n=%d rounds=%d msgs=%d cap=%d maxSent=%d maxRecv=%d sendViol=%d recvViol=%d collRounds=%d",
		m.N, m.Rounds, m.Messages, m.Capacity, m.MaxSentPerRound, m.MaxRecvPerRound,
		m.SendViolations, m.RecvViolations, m.CollectiveRounds)
}

// NodeResult and Trace (the per-run result assembly) live in trace.go.
