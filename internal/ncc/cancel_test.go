package ncc

import (
	"errors"
	"testing"
)

// Cancellation is cooperative at round granularity: the engine polls
// Config.Stop once per barrier and retires every suspended node, so even a
// protocol that never terminates on its own is reclaimed.

func TestStopCancelsRunningProtocol(t *testing.T) {
	stop := make(chan struct{})
	s := New(Config{N: 4, Seed: 3, Stop: stop})
	first := s.IDs()[0]
	tr, err := s.RunProgram(func(nd *Node) Op {
		var loop func(r int) Op
		loop = func(r int) Op {
			if nd.ID() == first && r == 50 {
				close(stop)
			}
			return Next(ContFunc(func(*Node, []Message) Op { return loop(r + 1) }))
		}
		return loop(0)
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if tr == nil {
		t.Fatal("canceled run must still return a trace")
	}
	if tr.Metrics.Rounds < 50 {
		t.Fatalf("run stopped before the protocol closed Stop (round %d)", tr.Metrics.Rounds)
	}
}

func TestStopClosedBeforeRun(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	s := New(Config{N: 2, Seed: 1, Stop: stop})
	_, err := s.RunProgram(func(nd *Node) Op { return Next(ContFunc(forever)) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestStopUnusedDoesNotAffectRun(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	s := New(Config{N: 3, Seed: 9, Stop: stop})
	_, err := s.RunProgram(func(nd *Node) Op {
		var loop func(i int) Op
		loop = func(i int) Op {
			if i == 5 {
				return Done()
			}
			return Next(ContFunc(func(*Node, []Message) Op { return loop(i + 1) }))
		}
		return loop(0)
	})
	if err != nil {
		t.Fatalf("run with an idle Stop channel must succeed, got %v", err)
	}
}
