package ncc

import (
	"errors"
	"testing"
)

// The progress hook fires at the same barrier that polls Stop, between two
// rounds, so it observes a frozen simulation: rounds and message counts must
// be monotone across invocations.

func TestProgressHookMonotone(t *testing.T) {
	const wantRounds = 20
	var rounds, msgs []int
	s := New(Config{
		N:    4,
		Seed: 11,
		Progress: func(round, m int) {
			rounds = append(rounds, round)
			msgs = append(msgs, m)
		},
	})
	_, err := s.RunProgram(func(nd *Node) Op {
		succ := nd.InitialSucc()
		var loop func(r int) Op
		loop = func(r int) Op {
			if r == wantRounds {
				return Done()
			}
			if succ != None {
				nd.Send(succ, Message{})
			}
			return Next(ContFunc(func(*Node, []Message) Op { return loop(r + 1) }))
		}
		return loop(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < wantRounds {
		t.Fatalf("hook fired %d times, want at least %d (once per barrier)", len(rounds), wantRounds)
	}
	if rounds[0] != 0 {
		t.Fatalf("first barrier must report 0 completed rounds, got %d", rounds[0])
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] < rounds[i-1] {
			t.Fatalf("rounds not monotone: %d after %d", rounds[i], rounds[i-1])
		}
		if msgs[i] < msgs[i-1] {
			t.Fatalf("messages not monotone: %d after %d", msgs[i], msgs[i-1])
		}
	}
	if last := msgs[len(msgs)-1]; last == 0 {
		t.Fatal("a sending protocol must report delivered messages")
	}
}

func TestProgressHookSeesCancellation(t *testing.T) {
	// The hook runs before the Stop poll in the same barrier, so a canceled
	// run still reports the rounds completed up to the cancellation point.
	stop := make(chan struct{})
	lastRound := -1
	s := New(Config{
		N:    3,
		Seed: 5,
		Stop: stop,
		Progress: func(round, m int) {
			lastRound = round
			if round == 10 {
				close(stop)
			}
		},
	})
	_, err := s.RunProgram(func(nd *Node) Op { return Next(ContFunc(forever)) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if lastRound < 10 {
		t.Fatalf("hook must have observed round 10 before cancellation, last saw %d", lastRound)
	}
}
