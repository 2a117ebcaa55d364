package ncc

import (
	"strconv"
	"testing"
)

// benchDrivers runs the same step-form protocol under both drivers, so
// benchstat output compares them side by side: "barrier" is Sim.Run over
// RunOps (one goroutine per node), "flat" is Sim.RunProgram (none).
var benchDrivers = []struct {
	name string
	run  func(s *Sim, entry Proto) (*Trace, error)
}{
	{"barrier", func(s *Sim, entry Proto) (*Trace, error) {
		return s.Run(func(nd *Node) { RunOps(nd, entry(nd)) })
	}},
	{"flat", (*Sim).RunProgram},
}

// BenchmarkDeliveryPooling drives the densest delivery workload — every node
// sends to its successor every round — so allocs/op tracks the receive-buffer
// pool in the delivery layer. Compare runs with benchstat to catch pooling
// regressions.
func BenchmarkDeliveryPooling(b *testing.B) {
	const n, rounds = 256, 64
	for _, drv := range benchDrivers {
		b.Run("sched="+drv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(Config{N: n, Seed: 1})
				_, err := drv.run(s, func(nd *Node) Op {
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
}

// BenchmarkBarrierOverhead measures the scheduler's wake/park round trip
// with no messages in flight — n nodes spinning through empty rounds — at the
// sizes the batch-runner benchmarks use. This isolates exactly the cost the
// flat driver exists to cut: per-round wakeup of the whole active set.
func BenchmarkBarrierOverhead(b *testing.B) {
	const rounds = 64
	for _, n := range []int{256, 4096, 65536} {
		for _, drv := range benchDrivers {
			b.Run("n="+strconv.Itoa(n)+"/sched="+drv.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := New(Config{N: n, Seed: 1})
					_, err := drv.run(s, func(nd *Node) Op {
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
}
