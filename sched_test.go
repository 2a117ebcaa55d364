package graphrealize

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"graphrealize/internal/connectivity"
	"graphrealize/internal/core"
	"graphrealize/internal/ncc"
	"graphrealize/internal/ncctest"
	"graphrealize/internal/sortnet"
	"graphrealize/internal/trees"
)

// sched_test.go pins the facade-level contract: every realization the facade
// runs has the outcome of a reference composed here from the protocols' step
// forms, and that reference reproduces the trace the same composition of
// blocking protocols produced on the goroutine-barrier driver, recorded as
// digests before the blocking API was retired. The step_test.go suites check
// one protocol at a time; this checks the facade's whole continuation
// chains, outputs included.

func conformanceJobs() []Job {
	return []Job{
		{Kind: JobDegrees, Seq: []int{4, 3, 3, 2, 2, 2, 2, 2}, Opt: &Options{Seed: 3}},
		{Kind: JobDegreesExplicit, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: &Options{Seed: 5}},
		{Kind: JobUpperEnvelope, Seq: []int{9, 1, 1, 1}, Opt: &Options{Seed: 7}},
		{Kind: JobChainTree, Seq: []int{3, 2, 2, 1, 1, 1, 1, 1}, Opt: &Options{Seed: 9}},
		{Kind: JobMinDiamTree, Seq: []int{3, 2, 2, 1, 1, 1, 1, 1}, Opt: &Options{Seed: 11}},
		{Kind: JobConnectivity, Seq: []int{2, 2, 2, 2, 1, 1}, Opt: &Options{Seed: 13, Model: NCC1}},
		{Kind: JobConnectivity, Seq: []int{2, 2, 2, 2, 1, 1}, Opt: &Options{Seed: 13}},
		// A run that fails deterministically must fail identically too.
		{Kind: JobDegrees, Seq: []int{5, 1}, Opt: &Options{Seed: 1}},
	}
}

// facadeDigests records, per job of conformanceJobs in order, the digest of
// the blocking reference's trace and of its Result.
var facadeDigests = []struct{ trace, result string }{
	{"e3ac68f33cf96e86", "55af55d0e50b11fb3c8a501aea71ba6180f67c1c16019bfdaf5c462b8f85a4e0"},
	{"228e212817128c00", "6453ea14b0b1b716fd68cca42b11384716aef9d866c42b039eabc47806c1828b"},
	{"ab08ebb38587f8b9", "a16bf3abcfdc00f62881acb5d3f0f42182825945a02c08e25ad8345754fbd82c"},
	{"ca706f58889372b6", "67283825a1ad391515af8c62d4c4f988b8da7cc878badf0580cddd9b8cbd5cf1"},
	{"d5bf4b329e3ab51b", "67283825a1ad391515af8c62d4c4f988b8da7cc878badf0580cddd9b8cbd5cf1"},
	{"d01f626f36544042", "68e817f06e125a8f8f8c9fae9bcfdab8134f1586bf14e4655e7f7d1465319675"},
	{"88875569f00ae3d9", "d7c69114020189ba01a747cacbe59295506367bde60286778869cef2f079f3e0"},
	{"fa25afd16e8226ba", "bcf3b68d43553cbaca0c9c83a2157aeba564ac75f27e6517483c5769a7ac612c"},
}

// reference executes j like Execute, but composes the protocols' step forms
// here rather than through the facade. It also returns the run's trace
// digest.
func reference(ctx context.Context, j Job) (Result, string) {
	o := j.Opt.norm()
	s := ncc.New(o.simConfig(ctx, len(j.Seq), toInputs(j.Seq)))
	sortnet.RegisterOracle(s)
	tr, err := s.RunProgram(func(nd *ncc.Node) ncc.Op {
		r := nd.Input().(int)
		if j.Kind == JobConnectivity && nd.Model() == ncc.NCC1 {
			return connectivity.RealizeNCC1(nd, r, func(connectivity.Outcome) ncc.Op { return ncc.Done() })
		}
		return core.Setup(nd, o.sortMethod(), func(env *core.Env) ncc.Op {
			switch j.Kind {
			case JobDegrees, JobDegreesExplicit:
				return core.Realize(nd, env, r, core.Exact, true, func(out core.Outcome) ncc.Op {
					nd.SetOutput("phases", int64(out.Phases))
					if out.OK && j.Kind == JobDegreesExplicit {
						return core.MakeExplicit(nd, env, out.Neighbors, out.Delta, func(int) ncc.Op { return ncc.Done() })
					}
					return ncc.Done()
				})
			case JobUpperEnvelope:
				return core.Realize(nd, env, r, core.Envelope, true, func(out core.Outcome) ncc.Op {
					nd.SetOutput("realized", int64(out.Realized))
					nd.SetOutput("phases", int64(out.Phases))
					return ncc.Done()
				})
			case JobChainTree:
				return trees.RealizeChain(nd, env, r, func(trees.Outcome) ncc.Op { return ncc.Done() })
			case JobMinDiamTree:
				return trees.RealizeGreedy(nd, env, r, func(trees.Outcome) ncc.Op { return ncc.Done() })
			case JobConnectivity:
				return connectivity.RealizeNCC0(nd, env, r, func(connectivity.Outcome) ncc.Op { return ncc.Done() })
			}
			return ncc.Done()
		})
	})
	res := Result{Job: j}
	digest := ncctest.Digest(tr, err)
	if err != nil {
		res.Err = mapRunErr(ctx, err)
		return res, digest
	}
	res.Stats = statsOf(tr)
	switch j.Kind {
	case JobDegrees, JobDegreesExplicit, JobUpperEnvelope:
		if v, ok := tr.MaxOutput("phases"); ok {
			res.Stats.Phases = int(v)
		}
	}
	switch {
	case j.Kind == JobUpperEnvelope:
		res.Envelope = make([]int, len(j.Seq))
		for i, id := range tr.IDs {
			v, _ := tr.Output(id, "realized")
			res.Envelope[i] = int(v)
		}
	case tr.Unrealizable:
		res.Err = ErrUnrealizable
		return res, digest
	}
	res.Graph = &Graph{N: len(tr.IDs), Adj: tr.Adjacency()}
	return res, digest
}

// TestSchedulerFacadeConformance runs every job kind through Execute and
// through its step-form reference and requires identical graphs, stats,
// envelopes, and errors, and the recorded trace and Result digests.
func TestSchedulerFacadeConformance(t *testing.T) {
	for i, j := range conformanceJobs() {
		label := fmt.Sprintf("%d/%s", i, j.Kind)
		want, traceDigest := reference(t.Context(), j)
		got := Execute(t.Context(), j)
		rec := facadeDigests[i]
		if traceDigest != rec.trace {
			t.Errorf("%s: trace digest %s, recorded %s", label, traceDigest, rec.trace)
		}
		for _, r := range []Result{want, got} {
			if d := resultDigest(r); d != rec.result {
				t.Errorf("%s: result digest %s, recorded %s", label, d, rec.result)
			}
		}
		if (want.Err == nil) != (got.Err == nil) || (want.Err != nil && want.Err.Error() != got.Err.Error()) {
			t.Fatalf("%s: errors differ: reference=%v facade=%v", label, want.Err, got.Err)
		}
		if !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Fatalf("%s: stats differ:\nreference %+v\nfacade    %+v", label, want.Stats, got.Stats)
		}
		if want.Err != nil {
			continue
		}
		if !reflect.DeepEqual(want.Graph.Edges(), got.Graph.Edges()) {
			t.Fatalf("%s: edge lists differ", label)
		}
		if !reflect.DeepEqual(want.Envelope, got.Envelope) {
			t.Fatalf("%s: envelopes differ", label)
		}
	}
}
