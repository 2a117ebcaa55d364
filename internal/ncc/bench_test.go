package ncc

import (
	"strconv"
	"testing"
)

// relay is a benchmark node that runs for rounds rounds, sending one
// message to its Gk successor in each when send is set. It is its own
// continuation, so a run allocates one relay per node and the rest of what
// it allocates is the engine's.
type relay struct {
	r, rounds int
	send      bool
}

func (c *relay) Resume(nd *Node, _ Wake) Op {
	if c.r >= c.rounds {
		return Done()
	}
	if succ := nd.InitialSucc(); c.send && succ != None {
		nd.Send(succ, Message{Kind: 1, A: int64(c.r)})
	}
	c.r++
	return Next(c)
}

// relayProto starts a relay at every node.
func relayProto(rounds int, send bool) Proto {
	return func(nd *Node) Op { return (&relay{rounds: rounds, send: send}).Resume(nd, Wake{}) }
}

// BenchmarkDeliveryPooling drives the densest delivery workload — every node
// sends to its successor every round — so allocs/op tracks the delivery
// layer's free list of receive buffers: once warm, a round allocates no
// buffer. Compare runs with benchstat to catch buffer-reuse regressions.
func BenchmarkDeliveryPooling(b *testing.B) {
	const n, rounds = 256, 64
	b.Run("sched=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Config{N: n, Seed: 1})
			if _, err := s.RunProgram(relayProto(rounds, true)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBarrierOverhead measures the engine's per-round cost with no
// messages in flight — n nodes stepping through empty rounds — at the sizes
// the batch-runner benchmarks use: per-round wakeup of the whole active set.
func BenchmarkBarrierOverhead(b *testing.B) {
	const rounds = 64
	for _, n := range []int{256, 4096, 65536} {
		b.Run("n="+strconv.Itoa(n)+"/sched=flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(Config{N: n, Seed: 1})
				if _, err := s.RunProgram(relayProto(rounds, false)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
