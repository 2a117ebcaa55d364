package graphrealize

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// TestRouteKeyGolden pins RouteKey's exact string form: it is the cluster
// routing identity (CLUSTER.md §4), so its layout is wire-stable — the
// worked example of CLUSTER.md §4.3 embeds this very string, and changing
// the format silently remaps every key to a different worker.
func TestRouteKeyGolden(t *testing.T) {
	j := Job{Kind: JobDegrees, Seq: []int{3, 3, 2, 2, 1, 1}, Opt: &Options{Seed: 7}}
	if got, want := j.RouteKey(), "degrees|060604040202|m0.s7.tfalse.c0.o0.r0"; got != want {
		t.Fatalf("RouteKey = %q, want %q (CLUSTER.md §4.3)", got, want)
	}
}

// TestRouteKeyMatchesCacheIdentity: RouteKey carries exactly the fields the
// Runner's result cache keys on (CLUSTER.md §4.1) — outcome-neutral fields
// (Label, TraceID, Timeout, the Progress/Profile hooks) must not move a job
// between workers, and every outcome-affecting option must.
func TestRouteKeyMatchesCacheIdentity(t *testing.T) {
	base := Job{Kind: JobDegrees, Seq: []int{3, 3, 2, 2, 1, 1}, Opt: &Options{Seed: 7}}
	key := base.RouteKey()

	// Outcome-neutral fields: same key.
	decorated := base
	decorated.Label = "sweep-row-3"
	decorated.TraceID = "req-123"
	decorated.Timeout = 5 * time.Second
	opt := *base.Opt
	opt.Progress = func(int, int) {}
	opt.Profile = func(_, _, _ time.Duration) {}
	decorated.Opt = &opt
	if decorated.RouteKey() != key {
		t.Fatal("outcome-neutral fields changed the route key; identical jobs would shard apart")
	}

	// A nil Opt keys like the zero Options.
	zeroA := Job{Kind: JobDegrees, Seq: []int{2, 1, 1}}
	zeroB := Job{Kind: JobDegrees, Seq: []int{2, 1, 1}, Opt: &Options{}}
	if zeroA.RouteKey() != zeroB.RouteKey() {
		t.Fatal("nil Opt and zero Options produced different keys")
	}

	// Every outcome-affecting field moves the key.
	variants := map[string]Job{
		"kind":       {Kind: JobDegreesExplicit, Seq: base.Seq, Opt: base.Opt},
		"seq":        {Kind: JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: base.Opt},
		"seed":       {Kind: JobDegrees, Seq: base.Seq, Opt: &Options{Seed: 8}},
		"model":      {Kind: JobDegrees, Seq: base.Seq, Opt: &Options{Seed: 7, Model: NCC1}},
		"strict":     {Kind: JobDegrees, Seq: base.Seq, Opt: &Options{Seed: 7, Strict: true}},
		"cap_mul":    {Kind: JobDegrees, Seq: base.Seq, Opt: &Options{Seed: 7, CapMul: 16}},
		"sort":       {Kind: JobDegrees, Seq: base.Seq, Opt: &Options{Seed: 7, Sort: OddEvenSort}},
		"max_rounds": {Kind: JobDegrees, Seq: base.Seq, Opt: &Options{Seed: 7, MaxRounds: 99}},
	}
	for field, j := range variants {
		if j.RouteKey() == key {
			t.Errorf("changing %s did not change the route key; distinct results would collide on one cache shard", field)
		}
	}
}

// TestCacheKeyVarints: the key's sequence is each value's zig-zag varint,
// written at its exact length in one allocation, across the byte-length
// boundaries and the negative inputs.
func TestCacheKeyVarints(t *testing.T) {
	seq := []int{0, 1, -1, 63, -64, 64, 127, 128, 1 << 20, -(1 << 40), math.MaxInt, math.MinInt}
	var want []byte
	for _, v := range seq {
		want = binary.AppendUvarint(want, uint64(v)<<1^uint64(int64(v)>>63))
	}
	j := Job{Kind: JobDegrees, Seq: seq}
	if got := j.cacheKey().seq; got != string(want) {
		t.Fatalf("key sequence %x, want %x", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = j.cacheKey() }); allocs != 1 {
		t.Fatalf("cacheKey: %v allocations, want 1", allocs)
	}
}
