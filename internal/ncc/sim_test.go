package ncc

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

const (
	kindHello uint8 = iota
	kindData
)

// finish is the continuation that ends the protocol on wake.
func finish(*Node, []Message) Op { return Done() }

// forever checks in at every barrier and never returns.
func forever(*Node, []Message) Op { return Next(ContFunc(forever)) }

// helloProto converts the directed path into an undirected one (the one-round
// conversion from §3.1 of the paper) and records the learned predecessor.
func helloProto(nd *Node) Op {
	if s := nd.InitialSucc(); s != None {
		nd.Send(s, Message{Kind: kindHello})
	}
	return Next(ContFunc(func(nd *Node, in []Message) Op {
		for _, m := range in {
			if m.Kind == kindHello {
				nd.SetOutput("pred", int64(m.Src))
			}
		}
		return Done()
	}))
}

func TestHelloPathLearnsPredecessors(t *testing.T) {
	for _, model := range []Model{NCC0, NCC1} {
		s := New(Config{N: 17, Seed: 1, Model: model, Strict: true})
		tr, err := s.RunProgram(helloProto)
		if err != nil {
			t.Fatalf("%v: run: %v", model, err)
		}
		ids := tr.IDs
		if v, ok := tr.Output(ids[0], "pred"); ok {
			t.Fatalf("%v: head learned a predecessor %d", model, v)
		}
		for i := 1; i < len(ids); i++ {
			v, ok := tr.Output(ids[i], "pred")
			if !ok {
				t.Fatalf("%v: node at position %d learned no predecessor", model, i)
			}
			if ID(v) != ids[i-1] {
				t.Fatalf("%v: position %d: pred = %d, want %d", model, i, v, ids[i-1])
			}
		}
		if tr.Metrics.Rounds != 1 {
			t.Fatalf("%v: rounds = %d, want 1", model, tr.Metrics.Rounds)
		}
		if tr.Metrics.Messages != int64(len(ids)-1) {
			t.Fatalf("%v: messages = %d, want %d", model, tr.Metrics.Messages, len(ids)-1)
		}
	}
}

func TestDistinctIDs(t *testing.T) {
	s := New(Config{N: 300, Seed: 7})
	seen := make(map[ID]bool)
	for _, id := range s.IDs() {
		if id <= 0 {
			t.Fatalf("non-positive ID %d", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestNCC1IDsAreOneToN(t *testing.T) {
	s := New(Config{N: 50, Seed: 3, Model: NCC1})
	seen := make(map[ID]bool)
	for _, id := range s.IDs() {
		if id < 1 || id > 50 {
			t.Fatalf("NCC1 ID %d out of [1,50]", id)
		}
		seen[id] = true
	}
	if len(seen) != 50 {
		t.Fatalf("got %d distinct IDs, want 50", len(seen))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Trace {
		s := New(Config{N: 64, Seed: 42})
		tr, err := s.RunProgram(func(nd *Node) Op {
			// Random walk of introductions: forward a random token along the path.
			if s := nd.InitialSucc(); s != None {
				nd.Send(s, Message{Kind: kindData, A: nd.Rand().Int63n(1000)})
			}
			return Next(ContFunc(func(nd *Node, in []Message) Op {
				sum := int64(0)
				for _, m := range in {
					sum += m.A
				}
				nd.SetOutput("sum", sum)
				return Done()
			}))
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return tr
	}
	a, b := run(), run()
	if a.Metrics.Rounds != b.Metrics.Rounds || a.Metrics.Messages != b.Metrics.Messages {
		t.Fatalf("nondeterministic metrics: %+v vs %+v", a.Metrics, b.Metrics)
	}
	for i, nr := range a.Nodes {
		if nr.Outputs["sum"] != b.Nodes[i].Outputs["sum"] {
			t.Fatalf("node %d: sum differs across identical runs", nr.ID)
		}
	}
}

func TestNCC0SendToUnknownFails(t *testing.T) {
	s := New(Config{N: 8, Seed: 5})
	ids := s.IDs()
	head := ids[0]
	tail := ids[len(ids)-1]
	_, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == head {
			nd.Send(tail, Message{}) // head does not know the tail
		}
		return Next(ContFunc(finish))
	})
	if err == nil || !strings.Contains(err.Error(), "unknown ID") {
		t.Fatalf("want unknown-ID violation, got %v", err)
	}
}

func TestNCC1MayContactAnyone(t *testing.T) {
	s := New(Config{N: 8, Seed: 5, Model: NCC1, Strict: true})
	ids := s.IDs()
	head, tail := ids[0], ids[len(ids)-1]
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == head {
			nd.Send(tail, Message{Kind: kindData, A: 99})
		}
		return Next(ContFunc(func(nd *Node, in []Message) Op {
			for _, m := range in {
				nd.SetOutput("got", m.A)
			}
			return Done()
		}))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v, _ := tr.Output(tail, "got"); v != 99 {
		t.Fatalf("tail got %d, want 99", v)
	}
}

func TestSendToSelfFails(t *testing.T) {
	s := New(Config{N: 4, Seed: 1})
	_, err := s.RunProgram(func(nd *Node) Op {
		nd.Send(nd.ID(), Message{})
		return Done()
	})
	if err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("want self-send violation, got %v", err)
	}
}

// TestSendToNonexistentIDFails: an ID the ID table does not hold, None
// included, is no destination in either model.
func TestSendToNonexistentIDFails(t *testing.T) {
	// Past each model's ID range for n = 4: NCC1's IDs are 1..4, NCC0's
	// are drawn from [1, 4n²].
	outside := map[Model]ID{NCC1: 5, NCC0: 4*4*4 + 1}
	for _, model := range []Model{NCC0, NCC1} {
		for _, dst := range []ID{None, outside[model]} {
			s := New(Config{N: 4, Seed: 1, Model: model})
			_, err := s.RunProgram(func(nd *Node) Op {
				nd.Send(dst, Message{})
				return Done()
			})
			if err == nil || !strings.Contains(err.Error(), "nonexistent") {
				t.Fatalf("%v: send to %d: want a nonexistent-ID violation, got %v", model, dst, err)
			}
		}
	}
}

func TestStrictSendCapacity(t *testing.T) {
	s := New(Config{N: 16, Seed: 2, CapMul: 1, Strict: true})
	capi := s.Capacity()
	_, err := s.RunProgram(func(nd *Node) Op {
		if succ := nd.InitialSucc(); succ != None {
			for i := 0; i <= capi; i++ {
				nd.Send(succ, Message{Kind: kindData, A: int64(i)})
			}
		}
		return Next(ContFunc(finish))
	})
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("want capacity violation, got %v", err)
	}
}

func TestNonStrictRecordsViolations(t *testing.T) {
	s := New(Config{N: 16, Seed: 2, CapMul: 1})
	capi := s.Capacity()
	tr, err := s.RunProgram(func(nd *Node) Op {
		if succ := nd.InitialSucc(); succ != None {
			for i := 0; i <= capi; i++ {
				nd.Send(succ, Message{Kind: kindData})
			}
		}
		return Next(ContFunc(finish))
	})
	if err != nil {
		t.Fatalf("non-strict run should succeed: %v", err)
	}
	if tr.Metrics.SendViolations == 0 {
		t.Fatal("send violations not recorded")
	}
	if tr.Metrics.RecvViolations == 0 {
		t.Fatal("recv violations not recorded")
	}
	if tr.Metrics.MaxRecvPerRound <= capi {
		t.Fatalf("MaxRecvPerRound = %d, want > capacity %d", tr.Metrics.MaxRecvPerRound, capi)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(Config{N: 4, Seed: 9})
	ids := s.IDs()
	_, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			return Await(ContFunc(finish)) // nobody will ever write
		}
		return Done()
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

func TestMaxRoundsAbort(t *testing.T) {
	s := New(Config{N: 4, Seed: 9, MaxRounds: 50})
	_, err := s.RunProgram(func(nd *Node) Op { return Next(ContFunc(forever)) })
	if !errors.Is(err, ErrMaxRounds) || err.Error() != "ncc: exceeded MaxRounds=50" {
		t.Fatalf("want ErrMaxRounds naming the limit, got %v", err)
	}
}

func TestPanicInProtocolSurfacesAsError(t *testing.T) {
	s := New(Config{N: 8, Seed: 9})
	ids := s.IDs()
	_, err := s.RunProgram(func(nd *Node) Op {
		return Next(ContFunc(func(nd *Node, in []Message) Op {
			if nd.ID() == ids[3] {
				panic("kaboom")
			}
			return Next(ContFunc(finish))
		}))
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want protocol panic surfaced, got %v", err)
	}
}

func TestSkipRoundsAccumulatesMail(t *testing.T) {
	s := New(Config{N: 2, Seed: 11, Strict: true})
	ids := s.IDs()
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			// Send one message per round for 3 rounds to the sleeping succ.
			var send func(i int) Op
			send = func(i int) Op {
				if i == 3 {
					return Done()
				}
				nd.Send(nd.InitialSucc(), Message{Kind: kindData, A: int64(i)})
				return Next(ContFunc(func(*Node, []Message) Op { return send(i + 1) }))
			}
			return send(0)
		}
		return Sleep(5, ContFunc(func(nd *Node, in []Message) Op {
			nd.SetOutput("n", int64(len(in)))
			return Done()
		}))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v, _ := tr.Output(ids[1], "n"); v != 3 {
		t.Fatalf("sleeper accumulated %d messages, want 3", v)
	}
}

func TestAwaitMessageWakesOnDelivery(t *testing.T) {
	s := New(Config{N: 3, Seed: 13, Strict: true})
	ids := s.IDs()
	tr, err := s.RunProgram(func(nd *Node) Op {
		switch nd.ID() {
		case ids[0]:
			return Sleep(4, ContFunc(func(nd *Node, in []Message) Op {
				nd.Send(nd.InitialSucc(), Message{Kind: kindData, A: 7})
				return Next(ContFunc(finish))
			}))
		case ids[1]:
			return Await(ContFunc(func(nd *Node, in []Message) Op {
				nd.SetOutput("round", int64(nd.Round()))
				nd.SetOutput("got", in[0].A)
				return Done()
			}))
		default:
			return Done()
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v, _ := tr.Output(ids[1], "got"); v != 7 {
		t.Fatalf("awaiter got %d, want 7", v)
	}
	if v, _ := tr.Output(ids[1], "round"); v != 5 {
		t.Fatalf("awaiter woke at round %d, want 5", v)
	}
}

func TestFastForwardIsCheap(t *testing.T) {
	s := New(Config{N: 2, Seed: 17})
	tr, err := s.RunProgram(func(nd *Node) Op {
		return Sleep(1_000_000, ContFunc(finish))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if tr.Metrics.Rounds < 1_000_000 {
		t.Fatalf("rounds = %d, want ≥ 1e6 (fast-forwarded)", tr.Metrics.Rounds)
	}
	// ActiveNodeRounds must be tiny despite the huge round count.
	if tr.Metrics.ActiveNodeRounds > 10 {
		t.Fatalf("ActiveNodeRounds = %d, fast-forward did not skip work", tr.Metrics.ActiveNodeRounds)
	}
}

func TestCollectiveSumAndCharge(t *testing.T) {
	sum := &Collective{Name: "sum", Run: func(s *Sim, ins []int64, outs []Message) int {
		total := int64(0)
		for _, in := range ins {
			total += in
		}
		for i := range outs {
			outs[i].A = total
		}
		return 13
	}}
	s := New(Config{N: 10, Seed: 19, Strict: true})
	tr, err := s.RunProgram(func(nd *Node) Op {
		return Next(ContFunc(func(nd *Node, in []Message) Op {
			return nd.Enter(sum, 2, ContFunc(func(nd *Node, in []Message) Op {
				nd.SetOutput("sum", in[0].A)
				return Done()
			}))
		}))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, nr := range tr.Nodes {
		if nr.Outputs["sum"] != 20 {
			t.Fatalf("node %d: collective sum = %d, want 20", nr.ID, nr.Outputs["sum"])
		}
	}
	if tr.Metrics.CollectiveRounds != 13 {
		t.Fatalf("charged %d rounds, want 13", tr.Metrics.CollectiveRounds)
	}
	if tr.Metrics.CollectiveCalls["sum"] != 1 {
		t.Fatalf("collective calls = %v", tr.Metrics.CollectiveCalls)
	}
	if tr.Metrics.Rounds < 14 {
		t.Fatalf("rounds = %d, want ≥ 14 (1 real + 13 charged)", tr.Metrics.Rounds)
	}
}

func TestCollectiveTeachesIDs(t *testing.T) {
	s := New(Config{N: 6, Seed: 23, Strict: true})
	ids := s.IDs()
	// The collective introduces everyone to the head node's ID, which each
	// node learns from the delivery of the collective's message.
	introduceHead := &Collective{Name: "introduce-head", Run: func(s *Sim, ins []int64, outs []Message) int {
		for i := range outs {
			outs[i] = Message{}.WithIDs(s.IDs()[0])
		}
		return 1
	}}
	tr, err := s.RunProgram(func(nd *Node) Op {
		return nd.Enter(introduceHead, 0, ContFunc(func(nd *Node, in []Message) Op {
			if !nd.Knows(ids[0]) {
				nd.fail("the collective's message did not teach the head's ID")
			}
			if nd.ID() != ids[0] {
				nd.Send(ids[0], Message{Kind: kindData, A: 1})
			}
			return Next(ContFunc(func(nd *Node, in []Message) Op {
				if nd.ID() == ids[0] {
					nd.SetOutput("heard", int64(nd.Round()))
				}
				return Done()
			}))
		}))
	})
	if err != nil {
		t.Fatalf("run (sending to a collectively learned ID): %v", err)
	}
	if _, ok := tr.Output(ids[0], "heard"); !ok {
		t.Fatal("head heard nothing")
	}
}

// TestCollectiveMessageFirst: a collective hands each entering node its
// message ahead of the messages sent in the round it entered, and Metrics
// counts only those sent messages.
func TestCollectiveMessageFirst(t *testing.T) {
	s := New(Config{N: 4, Seed: 41, Strict: true})
	ids := s.IDs()
	label := &Collective{Name: "label", Run: func(s *Sim, ins []int64, outs []Message) int {
		for i := range outs {
			outs[i].A = 100 + int64(i)
		}
		return 1
	}}
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			nd.Send(nd.InitialSucc(), Message{Kind: kindData, A: 7})
		}
		return nd.Enter(label, 0, ContFunc(func(nd *Node, in []Message) Op {
			want := []int64{100 + int64(nd.idx)}
			if nd.ID() == ids[1] {
				want = append(want, 7)
			}
			got := make([]int64, len(in))
			for i := range in {
				got[i] = in[i].A
			}
			if !slices.Equal(got, want) {
				nd.fail("woke with payloads %v, want %v", got, want)
			}
			return Done()
		}))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if m := tr.Metrics; m.Messages != 1 || m.MaxRecvPerRound != 1 {
		t.Fatalf("Messages = %d, MaxRecvPerRound = %d, want 1 and 1: the collective's messages are not counted",
			m.Messages, m.MaxRecvPerRound)
	}
}

// noop is a collective that charges nothing and leaves every node's message
// zero.
func noop(name string) *Collective {
	return &Collective{Name: name, Run: func(*Sim, []int64, []Message) int { return 0 }}
}

func TestCollectiveMismatchIsError(t *testing.T) {
	s := New(Config{N: 4, Seed: 29})
	a := noop("a")
	ids := s.IDs()
	_, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			return nd.Enter(a, 0, ContFunc(finish))
		}
		return Next(ContFunc(func(*Node, []Message) Op {
			return Next(ContFunc(func(*Node, []Message) Op { return Next(ContFunc(finish)) }))
		}))
	})
	if err == nil {
		t.Fatal("mismatched collective participation should fail")
	}
}

// TestCollectiveMixedValuesIsError: when the live nodes enter different
// Collective values in one round, the run fails naming both and runs
// neither. Values are compared, not names, so two collectives that share a
// Name are still two collectives.
func TestCollectiveMixedValuesIsError(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b *Collective
	}{
		{"distinct names", noop("left"), noop("right")},
		{"shared name", noop("twin"), noop("twin")},
	} {
		s := New(Config{N: 6, Seed: 31})
		tr, err := s.RunProgram(func(nd *Node) Op {
			if nd.idx < nd.N()/2 {
				return nd.Enter(tc.a, 0, ContFunc(finish))
			}
			return nd.Enter(tc.b, 0, ContFunc(finish))
		})
		want := `mixed collectives "` + tc.a.Name + `" and "` + tc.b.Name + `"`
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got error %v, want one containing %s", tc.name, err, want)
		}
		if len(tr.Metrics.CollectiveCalls) != 0 || tr.Metrics.CollectiveRounds != 0 {
			t.Fatalf("%s: a refused collective ran: calls %v, %d rounds charged",
				tc.name, tr.Metrics.CollectiveCalls, tr.Metrics.CollectiveRounds)
		}
	}
}

// TestCollectiveNilIsViolation: entering a nil collective, or one with no
// Run, fails the run as a protocol violation, the way Sleep(0) does.
func TestCollectiveNilIsViolation(t *testing.T) {
	for _, c := range []*Collective{nil, {Name: "no-run"}} {
		_, err := New(Config{N: 3, Seed: 37}).RunProgram(func(nd *Node) Op {
			return Next(ContFunc(func(*Node, []Message) Op { return nd.Enter(c, 0, ContFunc(finish)) }))
		})
		if err == nil || !strings.Contains(err.Error(), "Enter: nil collective") {
			t.Fatalf("Enter(%v): got error %v, want a nil-collective violation", c, err)
		}
	}
}

func TestUnrealizableFlag(t *testing.T) {
	s := New(Config{N: 3, Seed: 31})
	ids := s.IDs()
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[1] {
			nd.Unrealizable()
		}
		return Done()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !tr.Unrealizable {
		t.Fatal("unrealizable flag lost")
	}
}

// TestAdjacency checks Trace.Adjacency's contract: the union of every
// node's stored edges indexed by Gk position, each list ascending,
// duplicate-free and capped at its length, and nil for an isolated vertex.
func TestAdjacency(t *testing.T) {
	cases := []struct {
		name  string
		store [][]int // store[i]: the Gk positions node i stores edges to
		want  [][]int
	}{
		{"implicit, one endpoint", [][]int{{2, 1}, nil, {3}, nil}, [][]int{{1, 2}, {0}, {0, 3}, {2}}},
		{"explicit, both endpoints", [][]int{{2, 1}, {0}, {0}}, [][]int{{1, 2}, {0}, {0}}},
		{"same peer twice", [][]int{{1, 1}, {0}}, [][]int{{1}, {0}}},
		{"isolated vertex", [][]int{nil, {2}, nil}, [][]int{nil, {2}, {1}}},
		{"n=1", [][]int{nil}, [][]int{nil}},
	}
	for _, c := range cases {
		s := New(Config{N: len(c.store), Seed: 37, Strict: true})
		ids := s.IDs()
		tr, err := s.RunProgram(func(nd *Node) Op {
			for _, p := range c.store[nd.idx] {
				nd.AddEdge(ids[p])
			}
			return Done()
		})
		if err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		got := tr.Adjacency()
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: adjacency %v, want %v", c.name, got, c.want)
		}
		for v, a := range got {
			if cap(a) != len(a) {
				t.Errorf("%s: vertex %d's list has capacity %d for %d neighbours", c.name, v, cap(a), len(a))
			}
		}
	}
}

func TestInputsReachNodes(t *testing.T) {
	inputs := make([]int, 5)
	for i := range inputs {
		inputs[i] = i * i
	}
	s := New(Config{N: 5, Seed: 41, Inputs: inputs})
	tr, err := s.RunProgram(func(nd *Node) Op {
		nd.SetOutput("in", int64(nd.Input()))
		return Done()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, id := range tr.IDs {
		if v, _ := tr.Output(id, "in"); v != int64(i*i) {
			t.Fatalf("position %d: input %d, want %d", i, v, i*i)
		}
	}
}

func TestOrderedIDsLayout(t *testing.T) {
	s := New(Config{N: 20, Seed: 43, OrderedIDs: true})
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("OrderedIDs: ids[%d]=%d ≥ ids[%d]=%d", i-1, ids[i-1], i, ids[i])
		}
	}
}

// TestQuickHelloAnyN property-checks the path-conversion protocol over many
// sizes and seeds: every non-head node must learn exactly its predecessor.
func TestQuickHelloAnyN(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%97) + 1
		s := New(Config{N: n, Seed: seed, Strict: true})
		tr, err := s.RunProgram(helloProto)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			v, ok := tr.Output(tr.IDs[i], "pred")
			if !ok || ID(v) != tr.IDs[i-1] {
				return false
			}
		}
		_, headLearned := tr.Output(tr.IDs[0], "pred")
		return !headLearned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestKnowsSemantics checks NCC0 knowledge transfer: a node knows itself
// and its successor, learns every sender, never knows None, is taught
// nothing by None or its own ID, and keeps an exact set as it grows.
func TestKnowsSemantics(t *testing.T) {
	t.Run("path", func(t *testing.T) {
		s := New(Config{N: 3, Seed: 47, Strict: true})
		ids := s.IDs()
		_, err := s.RunProgram(func(nd *Node) Op {
			if !nd.Knows(nd.ID()) {
				nd.fail("node must know itself")
			}
			if nd.Knows(None) {
				nd.fail("no node knows None")
			}
			switch nd.ID() {
			case ids[0]:
				if !nd.Knows(ids[1]) {
					nd.fail("head must know its successor")
				}
				if nd.Knows(ids[2]) {
					nd.fail("head must not know the tail initially")
				}
				nd.Send(ids[1], Message{}.WithIDs(nd.ID()))
				return Next(ContFunc(func(nd *Node, in []Message) Op {
					// Carries only None and the receiver's own ID, from a
					// sender the receiver already knows.
					nd.Send(ids[1], Message{}.WithIDs(None, ids[1]))
					return Done()
				}))
			case ids[1]:
				return Next(ContFunc(func(nd *Node, in []Message) Op {
					if len(in) != 1 || !nd.Knows(in[0].Src) {
						nd.fail("receiver must learn sender")
					}
					before := nd.known.n
					return Next(ContFunc(func(nd *Node, in []Message) Op {
						if len(in) != 1 {
							nd.fail("want the (None, self) message, got %d", len(in))
						}
						if nd.known.n != before || nd.Knows(None) {
							nd.fail("a message carrying None and self taught %d IDs", nd.known.n-before)
						}
						return Done()
					}))
				}))
			default:
				return Next(ContFunc(func(*Node, []Message) Op { return Next(ContFunc(finish)) }))
			}
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})

	t.Run("ncc1-none", func(t *testing.T) {
		s := New(Config{N: 3, Seed: 47, Model: NCC1})
		_, err := s.RunProgram(func(nd *Node) Op {
			if nd.Knows(None) {
				nd.fail("no node knows None in NCC1")
			}
			return Done()
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})

	// The head installs 120 IDs and passes them to its successor, four per
	// message: enough to grow the receiver's set several times. The
	// receiver must then know exactly itself, the head and those IDs (its
	// own successor among them).
	t.Run("many-ids", func(t *testing.T) {
		const taught = 120
		s := New(Config{N: 200, Seed: 59})
		ids := s.IDs()
		lesson := ids[2 : 2+taught]
		_, err := s.RunProgram(func(nd *Node) Op {
			switch nd.ID() {
			case ids[0]:
				for _, id := range lesson {
					nd.Learn(id)
				}
				for i := 0; i < taught; i += MaxIDsPerMessage {
					nd.Send(ids[1], Message{}.WithIDs(lesson[i:i+MaxIDsPerMessage]...))
				}
				return Done()
			case ids[1]:
				return Next(ContFunc(func(nd *Node, in []Message) Op {
					if nd.known.n != taught+1 {
						nd.fail("knows %d IDs, want %d", nd.known.n, taught+1)
					}
					for i, id := range ids {
						if want := i < 2+taught; nd.Knows(id) != want {
							nd.fail("Knows(ids[%d]) = %v, want %v", i, !want, want)
						}
					}
					return Done()
				}))
			default:
				return Next(ContFunc(finish))
			}
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
}

// knowsModel is one node of TestKnowsMatchesReferenceModel: a reference
// map of the IDs the node has been taught, fed only from its initial
// successor and its own inbox, and the known node IDs it may send to.
type knowsModel struct {
	ids, ghosts []ID // every node ID; IDs that name no node
	known       map[ID]bool
	peers       []ID // the known node IDs other than the node's own
	steps       int  // steps left before Done
	most        *int // the largest known set any node has reached
}

func (m *knowsModel) teach(id ID) {
	if !m.known[id] {
		m.known[id] = true
		if !slices.Contains(m.ghosts, id) {
			m.peers = append(m.peers, id)
		}
		*m.most = max(*m.most, len(m.known))
	}
}

func (m *knowsModel) Resume(nd *Node, in []Message) Op {
	for i := range in {
		m.teach(in[i].Src)
		for _, id := range in[i].IDs() {
			if id != None && id != nd.ID() {
				m.teach(id)
			}
		}
	}
	return m.step(nd)
}

// step checks Knows against the model for every node ID, every ghost and
// None, checks that Send refuses a node ID the model says is unknown and a
// ghost the node knows, then sends up to three messages to known node IDs,
// each carrying up to four IDs drawn from the node IDs, None, the node's
// own ID and the ghosts.
func (m *knowsModel) step(nd *Node) Op {
	for _, id := range slices.Concat(m.ids, m.ghosts) {
		if got := nd.Knows(id); got != m.known[id] {
			nd.fail("Knows(%d) = %v, the model says %v", id, got, !got)
		}
	}
	if nd.Knows(None) {
		nd.fail("Knows(None) = true")
	}
	rng := nd.Rand()
	if len(m.peers)+1 < len(m.ids) {
		dst := m.ids[rng.Intn(len(m.ids))]
		for m.known[dst] {
			dst = m.ids[rng.Intn(len(m.ids))]
		}
		if err := sendRefused(nd, dst); err == nil || !strings.Contains(err.Error(), "unknown ID") {
			nd.fail("Send to %d, which the model says is unknown: %v", dst, err)
		}
	}
	for _, id := range m.ghosts {
		if m.known[id] {
			if err := sendRefused(nd, id); err == nil || !strings.Contains(err.Error(), "nonexistent ID") {
				nd.fail("Send to %d, which names no node: %v", id, err)
			}
			break
		}
	}
	m.steps--
	if m.steps == 0 {
		return Done()
	}
	for k := rng.Intn(4); k > 0 && len(m.peers) > 0; k-- {
		carried := make([]ID, rng.Intn(MaxIDsPerMessage+1))
		for i := range carried {
			switch rng.Intn(4) {
			case 0:
				carried[i] = m.ids[rng.Intn(len(m.ids))]
			case 1:
				carried[i] = None
			case 2:
				carried[i] = nd.ID()
			default:
				carried[i] = m.ghosts[rng.Intn(len(m.ghosts))]
			}
		}
		nd.Send(m.peers[rng.Intn(len(m.peers))], Message{}.WithIDs(carried...))
	}
	if rng.Intn(4) == 0 {
		return Sleep(1+rng.Intn(3), m)
	}
	return Next(m)
}

// sendRefused calls nd.Send(dst) and returns the violation it raised, or
// nil if it sent.
func sendRefused(nd *Node, dst ID) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(protoError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	nd.Send(dst, Message{})
	return nil
}

// TestKnowsMatchesReferenceModel runs random NCC0 protocols in which every
// node keeps a reference model of what it knows (knowsModel) and requires,
// at every step of every node, Knows to agree with it on every node ID and
// on IDs that name no node (a message that carries one teaches it, though
// Send refuses it), and Send to refuse an ID the model says is unknown. A
// node sleeps now and then, so mail also reaches it while it sleeps, and
// the largest knowledge set must pass 32 IDs, so sets grow through several
// table sizes.
func TestKnowsMatchesReferenceModel(t *testing.T) {
	for _, n := range []int{63, 65, 127, 129} {
		for seed := int64(1); seed <= 3; seed++ {
			s := New(Config{N: n, Seed: seed})
			ids := s.IDs()
			ghosts := []ID{-3, ID(4*n*n + 1)}
			for id := ID(1); len(ghosts) < 6; id++ {
				if !slices.Contains(ids, id) {
					ghosts = append(ghosts, id)
				}
			}
			most := 0
			tr, err := s.RunProgram(func(nd *Node) Op {
				m := &knowsModel{ids: ids, ghosts: ghosts, known: map[ID]bool{nd.ID(): true}, steps: 32, most: &most}
				if succ := nd.InitialSucc(); succ != None {
					m.teach(succ)
				}
				return m.step(nd)
			})
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, err)
			}
			if tr.Metrics.Messages == 0 || most <= 32 {
				t.Fatalf("n=%d seed %d: %d messages, largest known set %d", n, seed, tr.Metrics.Messages, most)
			}
		}
	}
}

func TestMessageTooManyIDs(t *testing.T) {
	s := New(Config{N: 2, Seed: 53})
	ids := s.IDs()
	_, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			nd.Send(ids[1], Message{}.WithIDs(1, 2, 3, 4, 5))
		}
		return Next(ContFunc(finish))
	})
	if err == nil || !strings.Contains(err.Error(), "IDs") {
		t.Fatalf("want oversized-message violation, got %v", err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Fatalf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSingleNode(t *testing.T) {
	s := New(Config{N: 1, Seed: 59, Strict: true})
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.InitialSucc() != None {
			nd.fail("single node has no successor")
		}
		nd.SetOutput("ok", 1)
		return Done()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v, _ := tr.Output(tr.IDs[0], "ok"); v != 1 {
		t.Fatal("single-node protocol did not run")
	}
}

func TestSendToFinishedNodeIsDropped(t *testing.T) {
	// A message to a node whose protocol already returned must not wedge
	// the driver; it is delivered to a dead inbox and ignored.
	s := New(Config{N: 2, Seed: 71, Strict: true})
	ids := s.IDs()
	_, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[1] {
			return Done() // dies immediately
		}
		return Next(ContFunc(func(nd *Node, in []Message) Op {
			nd.Send(ids[1], Message{Kind: kindData})
			return Next(ContFunc(finish))
		}))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestAwaitAfterSkipOrdering(t *testing.T) {
	// Sleep then Await: the await must see messages sent after
	// the skip expired, not lose them.
	s := New(Config{N: 2, Seed: 73, Strict: true})
	ids := s.IDs()
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			return Sleep(3, ContFunc(func(nd *Node, in []Message) Op {
				nd.Send(nd.InitialSucc(), Message{Kind: kindData, A: 5})
				return Next(ContFunc(finish))
			}))
		}
		return Sleep(2, ContFunc(func(nd *Node, in []Message) Op {
			return Await(ContFunc(func(nd *Node, in []Message) Op {
				nd.SetOutput("got", in[0].A)
				return Done()
			}))
		}))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if v, _ := tr.Output(ids[1], "got"); v != 5 {
		t.Fatalf("await after skip got %d", v)
	}
}

func TestDeterminismAcrossModels(t *testing.T) {
	// The same protocol must produce identical round counts per model; the
	// two models may differ from each other (different ID spaces).
	run := func(model Model) int {
		s := New(Config{N: 40, Seed: 99, Model: model})
		tr, err := s.RunProgram(helloProto)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Metrics.Rounds
	}
	if run(NCC0) != run(NCC0) || run(NCC1) != run(NCC1) {
		t.Fatal("per-model determinism broken")
	}
}

func TestMaxSentTracksBursts(t *testing.T) {
	s := New(Config{N: 4, Seed: 75})
	ids := s.IDs()
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() == ids[0] {
			for i := 0; i < 3; i++ {
				nd.Send(ids[1], Message{Kind: kindData})
			}
		}
		return Next(ContFunc(finish))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if tr.Metrics.MaxSentPerRound != 3 || tr.Metrics.MaxRecvPerRound != 3 {
		t.Fatalf("burst metrics: %+v", tr.Metrics)
	}
}

// TestStrictRecvViolationInFinalRound pins the strict-mode contract on the
// engine's early-exit path: when every protocol returns in the same compute
// slice, a receive-capacity violation in that final delivery must still fail
// the run (regression guard for the engine/delivery split).
func TestStrictRecvViolationInFinalRound(t *testing.T) {
	s := New(Config{N: 3, Model: NCC1, Seed: 3, CapMul: 1, Strict: true})
	target := s.IDs()[0]
	tr, err := s.RunProgram(func(nd *Node) Op {
		if nd.ID() != target {
			// Two senders deliver 2 messages each: 4 > capacity 2 at the
			// target, while each sender stays within its send budget.
			nd.Send(target, Message{Kind: kindData})
			nd.Send(target, Message{Kind: kindData})
		}
		// No Next: all protocols finish in the initial compute slice.
		return Done()
	})
	if err == nil {
		t.Fatalf("strict run must fail on final-round receive violation; metrics: %+v", tr.Metrics)
	}
	if tr.Metrics.RecvViolations == 0 {
		t.Fatalf("violation not recorded: %+v", tr.Metrics)
	}
}

// TestCapacityViolationCounts pins what the violation metrics count:
// SendViolations every message a node sends beyond capacity in a round,
// RecvViolations every round in which a node receives beyond it. One node
// that sends capacity+3 messages to one receiver counts 3 send violations
// and 1 receive violation; senders that each stay under capacity but
// together overfill one receiver count none and 1. A Strict run of each
// fails with the error of the side that overflowed, the send side first
// when both do.
func TestCapacityViolationCounts(t *testing.T) {
	const n, capacity = 8, 24 // NCC1 at the default CapMul: 8·⌈log₂ 8⌉
	ids := New(Config{N: n, Model: NCC1, Seed: 5}).IDs()
	dst := ids[n-1]
	cases := []struct {
		name       string
		sends      []int // how many messages the node at Gk position i sends to dst
		send, recv int   // the violations counted
		strictErr  string
	}{
		{"send-overflow", []int{capacity + 3}, 3, 1,
			"ncc: round 0: send capacity exceeded (capacity 24)"},
		{"receive-overflow", []int{13, 13}, 0, 1,
			fmt.Sprintf("ncc: round 0: node %d received 26 messages (capacity 24)", dst)},
	}
	for _, c := range cases {
		for _, strict := range []bool{false, true} {
			s := New(Config{N: n, Model: NCC1, Seed: 5, Strict: strict})
			if s.Capacity() != capacity {
				t.Fatalf("capacity %d, want %d", s.Capacity(), capacity)
			}
			tr, err := s.RunProgram(func(nd *Node) Op {
				for i, k := range c.sends {
					if nd.ID() == ids[i] {
						for range k {
							nd.Send(dst, Message{Kind: kindData})
						}
					}
				}
				return Next(ContFunc(finish))
			})
			m := tr.Metrics
			if m.SendViolations != c.send || m.RecvViolations != c.recv {
				t.Errorf("%s (strict %v): %d send and %d receive violations, want %d and %d",
					c.name, strict, m.SendViolations, m.RecvViolations, c.send, c.recv)
			}
			switch {
			case !strict && err != nil:
				t.Errorf("%s: non-strict run failed: %v", c.name, err)
			case strict && (err == nil || !errors.Is(err, ErrCapacity)):
				t.Errorf("%s: strict run returned %v, want a capacity error", c.name, err)
			case strict && err.Error() != c.strictErr:
				t.Errorf("%s: strict error %q, want %q", c.name, err, c.strictErr)
			}
		}
	}
}
