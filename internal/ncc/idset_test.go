package ncc

import (
	"math/rand"
	"testing"
)

// TestIDSetMatchesMap drives idSet and map[ID]struct{} with the same random
// add/has sequences and requires identical answers. Narrow key ranges force
// probe collisions; None is mixed in to check it is never a member.
func TestIDSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := int64(1) << uint(rng.Intn(40)+1) // 2 .. 2^40
		var set idSet
		ref := map[ID]struct{}{}
		for op := 0; op < 2000; op++ {
			id := ID(rng.Int63n(span))
			if rng.Intn(8) == 0 {
				id = -id // negative IDs hash like any other
			}
			if rng.Intn(2) == 0 {
				set.add(id)
				if id != None {
					ref[id] = struct{}{}
				}
			}
			_, want := ref[id]
			if got := set.has(id); got != want {
				t.Fatalf("seed %d op %d: has(%d) = %v, want %v", seed, op, id, got, want)
			}
			if set.n != len(ref) {
				t.Fatalf("seed %d op %d: %d members, want %d", seed, op, set.n, len(ref))
			}
		}
		if set.has(None) {
			t.Fatalf("seed %d: None is a member", seed)
		}
	}
}
