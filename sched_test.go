package graphrealize

import (
	"context"
	"reflect"
	"testing"

	"graphrealize/internal/connectivity"
	"graphrealize/internal/core"
	"graphrealize/internal/ncc"
	"graphrealize/internal/sortnet"
	"graphrealize/internal/trees"
)

// sched_test.go pins the facade-level driver contract: every realization the
// facade runs on the flat driver (Sim.RunProgram over the step forms) has the
// outcome of the same realization composed from the blocking protocols and
// run on the barrier driver (Sim.Run), the reference the step forms are
// checked against. The step_test.go suites compare one protocol at a time;
// this compares the facade's whole continuation chains, outputs included.

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

// blockingReference executes j like Execute, but composes the blocking form
// of each protocol and runs it with Sim.Run.
func blockingReference(ctx context.Context, j Job) Result {
	o := j.Opt.norm()
	s := ncc.New(o.simConfig(ctx, len(j.Seq), toInputs(j.Seq)))
	sortnet.RegisterOracle(s)
	tr, err := s.Run(func(nd *ncc.Node) {
		r := nd.Input().(int)
		if j.Kind == JobConnectivity && nd.Model() == ncc.NCC1 {
			connectivity.RealizeNCC1(nd, r)
			return
		}
		env := core.Setup(nd, o.sortMethod())
		switch j.Kind {
		case JobDegrees, JobDegreesExplicit:
			out := core.Realize(nd, env, r, core.Exact, true)
			if out.OK && j.Kind == JobDegreesExplicit {
				core.MakeExplicit(nd, env, out.Neighbors, out.Delta)
			}
			nd.SetOutput("phases", int64(out.Phases))
		case JobUpperEnvelope:
			out := core.Realize(nd, env, r, core.Envelope, true)
			nd.SetOutput("realized", int64(out.Realized))
			nd.SetOutput("phases", int64(out.Phases))
		case JobChainTree:
			trees.RealizeChain(nd, env, r)
		case JobMinDiamTree:
			trees.RealizeGreedy(nd, env, r)
		case JobConnectivity:
			connectivity.RealizeNCC0(nd, env, r)
		}
	})
	res := Result{Job: j}
	if err != nil {
		res.Err = mapRunErr(ctx, err)
		return res
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
		return res
	}
	res.Graph = graphOf(tr)
	return res
}

// TestSchedulerFacadeConformance runs every job kind through Execute and
// through its blocking reference and requires identical graphs, stats,
// envelopes, and errors.
func TestSchedulerFacadeConformance(t *testing.T) {
	for _, j := range conformanceJobs() {
		label := j.Kind.String()
		want := blockingReference(t.Context(), j)
		got := Execute(t.Context(), j)
		if (want.Err == nil) != (got.Err == nil) || (want.Err != nil && want.Err.Error() != got.Err.Error()) {
			t.Fatalf("%s: errors differ: blocking=%v facade=%v", label, want.Err, got.Err)
		}
		if !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Fatalf("%s: stats differ:\nblocking %+v\nfacade   %+v", label, want.Stats, got.Stats)
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
