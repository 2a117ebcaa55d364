package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"graphrealize"
)

// TestScoreGolden pins the §4.2 score function to the worked example of
// CLUSTER.md §4.3: the scores are part of the spec, so a drift in the hash
// input layout (separator, order) is a wire-breaking change, not a refactor.
func TestScoreGolden(t *testing.T) {
	key := "degrees|060604040202|m0.s7.tfalse.c0.o0.r0"
	golden := map[string]uint64{
		"w1": 0x68754080b15c2ef2,
		"w2": 0xc631862fed8b990d,
		"w3": 0x7b3bfbca7e7a864c,
	}
	for worker, want := range golden {
		if got := Score(worker, key); got != want {
			t.Errorf("Score(%q, key) = %#x, want %#x (CLUSTER.md §4.3)", worker, got, want)
		}
	}
}

// TestRouteKeyWorkedExample ties the root package's Job.RouteKey to the
// CLUSTER.md §4.3 example end to end: the job from the spec must produce the
// spec's key string, and rendezvous ranking over {w1,w2,w3} must produce the
// spec's rank, owner, and failover target.
func TestRouteKeyWorkedExample(t *testing.T) {
	job := graphrealize.Job{
		Kind: graphrealize.JobDegrees,
		Seq:  []int{3, 3, 2, 2, 1, 1},
		Opt:  &graphrealize.Options{Seed: 7},
	}
	key := job.RouteKey()
	if want := "degrees|060604040202|m0.s7.tfalse.c0.o0.r0"; key != want {
		t.Fatalf("RouteKey = %q, want %q (CLUSTER.md §4.3)", key, want)
	}

	workers := []string{"w1", "w2", "w3"}
	if got, want := Rank(workers, key), []string{"w2", "w3", "w1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank = %v, want %v (CLUSTER.md §4.3)", got, want)
	}
	owner, ok := Owner(workers, key)
	if !ok || owner != "w2" {
		t.Fatalf("Owner = %q/%v, want w2/true", owner, ok)
	}

	// Remove the owner: the key moves to exactly the previous rank[1].
	if got, want := Rank([]string{"w1", "w3"}, key), []string{"w3", "w1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank without owner = %v, want %v (CLUSTER.md §4.3)", got, want)
	}

	// Different seed, same sequence: independent shard (owner w1, not w2).
	job.Opt = &graphrealize.Options{Seed: 9}
	key9 := job.RouteKey()
	if want := "degrees|060604040202|m0.s9.tfalse.c0.o0.r0"; key9 != want {
		t.Fatalf("RouteKey(seed 9) = %q, want %q", key9, want)
	}
	if owner, _ := Owner(workers, key9); owner != "w1" {
		t.Fatalf("Owner(seed 9) = %q, want w1 (CLUSTER.md §4.3)", owner)
	}
}

// TestRankDeterministicAndComplete: ranking is a pure function of
// (workers, key) — order of the input slice must not matter — and always
// permutes the full worker set (CLUSTER.md §4.2).
func TestRankDeterministicAndComplete(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	perm := []string{"w4", "w2", "w5", "w1", "w3"}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("degrees|02|m0.s%d.tfalse.c0.o0.r0", i)
		a, b := Rank(workers, key), Rank(perm, key)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("key %q: rank depends on input order: %v vs %v", key, a, b)
		}
		seen := make(map[string]bool, len(a))
		for _, w := range a {
			seen[w] = true
		}
		if len(seen) != len(workers) {
			t.Fatalf("key %q: rank %v is not a permutation of %v", key, a, workers)
		}
	}
}

// TestMinimalMotionOnRemoval pins the rendezvous minimal-motion property of
// CLUSTER.md §4.2: removing one worker reassigns exactly the keys it owned —
// every key owned by a surviving worker keeps its owner — so a worker death
// moves only the dead worker's cache shard.
func TestMinimalMotionOnRemoval(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	const dead = "w3"
	survivors := make([]string, 0, len(workers)-1)
	for _, w := range workers {
		if w != dead {
			survivors = append(survivors, w)
		}
	}

	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("degrees|0604|m0.s%d.tfalse.c0.o0.r0.pool", i)
		before, _ := Owner(workers, key)
		after, _ := Owner(survivors, key)
		if before == dead {
			moved++
			// The new owner must be the old rank[1] (CLUSTER.md §6.1).
			if next := Rank(workers, key)[1]; after != next {
				t.Fatalf("key %q: reassigned to %q, want old rank[1] %q", key, after, next)
			}
			continue
		}
		kept++
		if after != before {
			t.Fatalf("key %q: owner moved %q → %q though %q was not removed (CLUSTER.md §4.2)",
				key, before, after, dead)
		}
	}
	// Sanity: the dead worker owned a nontrivial share, so the property was
	// actually exercised. FNV spreads 2000 keys roughly evenly over 5 workers.
	if moved < 100 || kept < 100 {
		t.Fatalf("degenerate key distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRankTieBreak: equal scores order by name. Engineering a real FNV
// collision is impractical, so exercise the comparator through duplicate
// names, which score identically by construction (CLUSTER.md §4.2).
func TestRankTieBreak(t *testing.T) {
	got := Rank([]string{"dup", "dup"}, "any-key")
	if !reflect.DeepEqual(got, []string{"dup", "dup"}) {
		t.Fatalf("tie rank = %v", got)
	}
	if owner, ok := Owner([]string{"dup", "dup"}, "any-key"); !ok || owner != "dup" {
		t.Fatalf("tie owner = %q/%v", owner, ok)
	}
	if _, ok := Owner(nil, "any-key"); ok {
		t.Fatal("Owner over empty set reported ok")
	}
}

// TestScoreSeparator: the 0x00 separator keeps (name, key) splits distinct —
// Score("ab","c") must differ from Score("a","bc") even though the
// concatenations match (CLUSTER.md §4.2).
func TestScoreSeparator(t *testing.T) {
	if Score("ab", "c") == Score("a", "bc") {
		t.Fatal("scores collide across the name/key boundary; separator missing")
	}
}
