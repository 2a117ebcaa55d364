package ncc

import (
	"strconv"
	"testing"
)

// BenchmarkDeliveryPooling drives the densest delivery workload — every node
// sends to its successor every round — so allocs/op tracks the receive-buffer
// pool in the delivery layer. Compare runs with benchstat to catch pooling
// regressions.
func BenchmarkDeliveryPooling(b *testing.B) {
	const n, rounds = 256, 64
	b.Run("sched=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Config{N: n, Seed: 1})
			_, err := s.RunProgram(func(nd *Node) Op {
				var loop func(r int) Op
				loop = func(r int) Op {
					if r >= rounds {
						return Done()
					}
					if succ := nd.InitialSucc(); succ != None {
						nd.Send(succ, Message{Kind: 1, A: int64(r)})
					}
					return Next(func(nd *Node, w Wake) Op { return loop(r + 1) })
				}
				return loop(0)
			})
			if err != nil {
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
				_, err := s.RunProgram(func(nd *Node) Op {
					var loop func(r int) Op
					loop = func(r int) Op {
						if r >= rounds {
							return Done()
						}
						return Next(func(nd *Node, w Wake) Op { return loop(r + 1) })
					}
					return loop(0)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
