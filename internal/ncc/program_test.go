package ncc

import (
	"reflect"
	"testing"
)

// program_test.go pins the single-node semantics of the resumable-op
// vocabulary (program.go), independent of any protocol package: each Op kind
// maps onto exactly one engine barrier, Wake carries exactly what the
// corresponding blocking call would have returned, and the flat stepper
// validates malformed ops the same way the barrier driver does.

// TestOpSingleNodeSemantics drives a lone node through Next and Sleep under
// the flat driver and checks the observed round at every resumption.
func TestOpSingleNodeSemantics(t *testing.T) {
	s := New(Config{N: 1, Seed: 1, Strict: true})
	var at []int
	_, err := s.RunProgram(func(nd *Node) Op {
		at = append(at, nd.Round()) // entry runs in round 0
		return Next(func(nd *Node, w Wake) Op {
			at = append(at, nd.Round()) // Next advances exactly one round
			if len(w.Msgs) != 0 {
				t.Errorf("Next delivered %d messages, want 0", len(w.Msgs))
			}
			return Sleep(3, func(nd *Node, w Wake) Op {
				at = append(at, nd.Round()) // Sleep(3) skips three rounds
				return Done()
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4}; !reflect.DeepEqual(at, want) {
		t.Fatalf("observed rounds %v, want %v", at, want)
	}
}

// TestOpAwaitWakeCarriesMessages checks that an Await continuation receives
// the delivered inbox in Wake.Msgs — the step-form analogue of AwaitMessage's
// return value.
func TestOpAwaitWakeCarriesMessages(t *testing.T) {
	s := New(Config{N: 2, Seed: 2, Strict: true})
	_, err := s.RunProgram(func(nd *Node) Op {
		if succ := nd.InitialSucc(); succ != None {
			nd.Send(succ, Message{Kind: 7, A: 42})
			return Done()
		}
		return Await(func(nd *Node, w Wake) Op {
			if len(w.Msgs) != 1 || w.Msgs[0].Kind != 7 || w.Msgs[0].A != 42 {
				t.Errorf("await woke with %+v, want one message Kind=7 A=42", w.Msgs)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpCollectiveRoundTrip checks that a Collective op hands the node's
// input to the handler and that Wake.Coll carries the per-node output back.
func TestOpCollectiveRoundTrip(t *testing.T) {
	const n = 5
	inputs := make([]any, n)
	for i := range inputs {
		inputs[i] = int64(i + 1)
	}
	s := New(Config{N: n, Seed: 3, Strict: true, Inputs: inputs})
	s.RegisterCollective("sum", func(s *Sim, ins []any) ([]any, int) {
		var total int64
		for _, in := range ins {
			total += in.(int64)
		}
		outs := make([]any, len(ins))
		for i := range outs {
			outs[i] = total
		}
		return outs, 2
	})
	tr, err := s.RunProgram(func(nd *Node) Op {
		return Collective("sum", nd.Input(), func(nd *Node, w Wake) Op {
			nd.SetOutput("total", w.Coll.(int64))
			return Done()
		})
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

// TestOpSleepValidation: a non-positive sleep is a protocol error under the
// flat driver, matching SkipRounds' panic under RunOps on the barrier driver.
func TestOpSleepValidation(t *testing.T) {
	entry := func(nd *Node) Op {
		return Sleep(0, func(nd *Node, w Wake) Op { return Done() })
	}
	if _, err := New(Config{N: 1, Seed: 4}).Run(func(nd *Node) { RunOps(nd, entry(nd)) }); err == nil {
		t.Fatal("barrier: Sleep(0) did not error")
	}
	if _, err := New(Config{N: 1, Seed: 4}).RunProgram(entry); err == nil {
		t.Fatal("flat: Sleep(0) did not error")
	}
}

// TestOpSequenceTraceIdentical runs one mixed-op micro protocol (send, next,
// await, sleep) under RunOps on the barrier driver and under RunProgram and
// requires byte-identical traces — the smallest possible outbox-determinism
// check, below any real protocol.
func TestOpSequenceTraceIdentical(t *testing.T) {
	entry := func(nd *Node) Op {
		if succ := nd.InitialSucc(); succ != None {
			nd.Send(succ, Message{Kind: 1, A: int64(nd.ID())})
			return Next(func(nd *Node, w Wake) Op {
				return Sleep(2, func(nd *Node, w Wake) Op {
					nd.SetOutput("sent", 1)
					return Done()
				})
			})
		}
		return Await(func(nd *Node, w Wake) Op {
			nd.SetOutput("got", w.Msgs[0].A)
			return Done()
		})
	}
	cfg := Config{N: 4, Seed: 5, Strict: true}
	base, err := New(cfg).Run(func(nd *Node) { RunOps(nd, entry(nd)) })
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(cfg).RunProgram(entry)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	if !reflect.DeepEqual(base, tr) {
		t.Fatalf("flat trace differs from barrier:\nbarrier %+v\nflat    %+v", base, tr)
	}
}
