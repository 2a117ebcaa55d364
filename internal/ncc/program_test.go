package ncc_test

import (
	"reflect"
	"testing"
	"unsafe"

	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
)

// program_test.go pins the single-node semantics of the resumable-op
// vocabulary (program.go), independent of any protocol package: each Op kind
// maps onto exactly one engine barrier, a continuation receives the
// delivered inbox, a collective's message first, and the engine rejects
// malformed ops.

// TestOpFitsInRegisters pins Op at four words: the compiler keeps a struct
// that size in registers, and a larger Op goes through memory on every
// step (DESIGN.md §2).
func TestOpFitsInRegisters(t *testing.T) {
	if got, limit := unsafe.Sizeof(ncc.Op{}), 4*unsafe.Sizeof(uintptr(0)); got > limit {
		t.Fatalf("Op is %d bytes, want at most %d", got, limit)
	}
}

// TestOpSingleNodeSemantics drives a lone node through Next and Sleep and
// checks the observed round at every resumption.
func TestOpSingleNodeSemantics(t *testing.T) {
	s := ncc.New(ncc.Config{N: 1, Seed: 1, Strict: true})
	var at []int
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		at = append(at, nd.Round()) // entry runs in round 0
		return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
			at = append(at, nd.Round()) // Next advances exactly one round
			if len(in) != 0 {
				t.Errorf("Next delivered %d messages, want 0", len(in))
			}
			return ncc.Sleep(3, ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
				at = append(at, nd.Round()) // Sleep(3) skips three rounds
				return ncc.Done()
			}))
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4}; !reflect.DeepEqual(at, want) {
		t.Fatalf("observed rounds %v, want %v", at, want)
	}
}

// TestOpAwaitWakeCarriesMessages checks that an Await continuation receives
// the delivered inbox.
func TestOpAwaitWakeCarriesMessages(t *testing.T) {
	s := ncc.New(ncc.Config{N: 2, Seed: 2, Strict: true})
	_, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		if succ := nd.InitialSucc(); succ != ncc.None {
			nd.Send(succ, ncc.Message{Kind: 7, A: 42})
			return ncc.Done()
		}
		return ncc.Await(ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
			if len(in) != 1 || in[0].Kind != 7 || in[0].A != 42 {
				t.Errorf("await woke with %+v, want one message Kind=7 A=42", in)
			}
			return ncc.Done()
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpCollectiveRoundTrip checks that Enter hands the node's input to the
// collective's Run and that the node's message carries its output back.
func TestOpCollectiveRoundTrip(t *testing.T) {
	const n = 5
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i + 1
	}
	sum := &ncc.Collective{Name: "sum", Run: func(s *ncc.Sim, ins []int64, outs []ncc.Message) int {
		var total int64
		for _, in := range ins {
			total += in
		}
		for i := range outs {
			outs[i].A = total
		}
		return 2
	}}
	s := ncc.New(ncc.Config{N: n, Seed: 3, Strict: true, Inputs: inputs})
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		return nd.Enter(sum, int64(nd.Input()), ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
			nd.SetOutput("total", in[0].A)
			return ncc.Done()
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n * (n + 1) / 2)
	for _, id := range tr.IDs {
		if v, ok := tr.Output(id, "total"); !ok || v != want {
			t.Fatalf("node %d: total %d (ok=%v), want %d", id, v, ok, want)
		}
	}
	if tr.Metrics.CollectiveRounds != 2 {
		t.Fatalf("collective charged %d rounds, want 2", tr.Metrics.CollectiveRounds)
	}
}

// TestOpSleepValidation: a non-positive sleep is a protocol error.
func TestOpSleepValidation(t *testing.T) {
	entry := func(nd *ncc.Node) ncc.Op {
		return ncc.Sleep(0, ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op { return ncc.Done() }))
	}
	if _, err := ncc.New(ncc.Config{N: 1, Seed: 4}).RunProgram(entry); err == nil {
		t.Fatal("Sleep(0) did not error")
	}
}

// TestOpSequenceTraceIdentical runs one mixed-op micro protocol (send, next,
// await, sleep) and requires the trace it produced under RunOps on the
// goroutine-barrier driver, recorded as a digest — the smallest possible
// outbox-determinism check, below any real protocol.
func TestOpSequenceTraceIdentical(t *testing.T) {
	entry := func(nd *ncc.Node) ncc.Op {
		if succ := nd.InitialSucc(); succ != ncc.None {
			nd.Send(succ, ncc.Message{Kind: 1, A: int64(nd.ID())})
			return ncc.Next(ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
				return ncc.Sleep(2, ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
					nd.SetOutput("sent", 1)
					return ncc.Done()
				}))
			}))
		}
		return ncc.Await(ncc.ContFunc(func(nd *ncc.Node, in []ncc.Message) ncc.Op {
			nd.SetOutput("got", in[0].A)
			return ncc.Done()
		}))
	}
	tr, err := ncc.New(ncc.Config{N: 4, Seed: 5, Strict: true}).RunProgram(entry)
	ncctest.Expect(t, "op sequence", tr, err, "e7fb13619dd3b51e")
}
