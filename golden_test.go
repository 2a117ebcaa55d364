package graphrealize

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"graphrealize/internal/gen"
)

// golden_test.go pins the exact result of every realization kind as a
// SHA-256 digest over its sorted edge list and Stats (plus the envelope for
// the upper-envelope variant). Driver conformance tests compare one engine
// driver against another, so a change that moves every driver together — a
// different RNG draw, a reordered message, an extra round — passes them
// unnoticed. These digests catch exactly that: they fix rounds, messages
// and edges to the values the engine produced when they were recorded.

type goldenCase struct {
	name string
	kind JobKind
	seq  func(n int) []int
	opt  Options
}

func goldenCases() []goldenCase {
	degrees := func(n int) []int { return gen.FromRandomGraph(n, 6/float64(n), int64(100+n)) }
	trees := func(n int) []int { return gen.TreeSequence(n, int64(200+n)) }
	rho := func(n int) []int { return gen.UniformRho(n, 3, int64(300+n)) }
	return []goldenCase{
		{"degrees", JobDegrees, degrees, Options{}},
		{"degrees-explicit", JobDegreesExplicit, degrees, Options{}},
		{"upper-envelope", JobUpperEnvelope, func(n int) []int { return gen.NonGraphic(n, int64(400+n)) }, Options{}},
		{"chain-tree", JobChainTree, trees, Options{}},
		{"min-diam-tree", JobMinDiamTree, trees, Options{}},
		{"connectivity-ncc0", JobConnectivity, rho, Options{Model: NCC0}},
		{"connectivity-ncc1", JobConnectivity, rho, Options{Model: NCC1}},
	}
}

// resultDigest hashes everything a Result reports about the realization.
func resultDigest(res Result) string {
	h := sha256.New()
	if res.Err != nil {
		fmt.Fprintf(h, "err:%s\n", res.Err)
	}
	if res.Graph != nil {
		es := res.Graph.Edges()
		sort.Slice(es, func(i, j int) bool {
			if es[i][0] != es[j][0] {
				return es[i][0] < es[j][0]
			}
			return es[i][1] < es[j][1]
		})
		fmt.Fprintf(h, "n:%d edges:%v\n", res.Graph.N, es)
	}
	if res.Stats != nil {
		fmt.Fprintf(h, "stats:%+v\n", *res.Stats)
	}
	if res.Envelope != nil {
		fmt.Fprintf(h, "envelope:%v\n", res.Envelope)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenDigests holds the recorded digests, keyed "<case>/n=<n>/seed=<seed>".
var goldenDigests = map[string]string{
	"degrees/n=24/seed=1":           "ef389849055c9d84a726ee9bb69bde73e42c3f88c55925b683e1594372f25293",
	"degrees/n=24/seed=2":           "681bd0c9e1e82f9b17b1b008dc385e63e0e99270c9afede35e3ddf000b8ca296",
	"degrees/n=80/seed=1":           "bffaf88e23160911193caede87079580e89440fb450bc7324809c05e2dcd14e4",
	"degrees/n=80/seed=2":           "5aec23fc0735239c386f430f17da605114d3681ddc80428373c1eec5a54abf22",
	"degrees-explicit/n=24/seed=1":  "4635e881e7b9cd6e541cecb4c6309349dc447c4792662cae05992ace938dd1c3",
	"degrees-explicit/n=24/seed=2":  "9ce3057963a08367559e3d82a3ca89912f080a39cde0430f1c8a29925c2091fb",
	"degrees-explicit/n=80/seed=1":  "589d7c396dbaac99541eea52eb55b80553750ff293ee048751f987e4c843c0dd",
	"degrees-explicit/n=80/seed=2":  "4643d2105c4ac39733aabcdc1f1e10763328b119951e6fa97bda244de3461998",
	"upper-envelope/n=24/seed=1":    "213a1039c81e89e4ab8304992cd5abcd88d5282c1dd524c928391e3aacfd9425",
	"upper-envelope/n=24/seed=2":    "213a1039c81e89e4ab8304992cd5abcd88d5282c1dd524c928391e3aacfd9425",
	"upper-envelope/n=80/seed=1":    "13e70f38c13871733583fe380d20a50cd34e02478f9f8a40aa07aa3d0116ee16",
	"upper-envelope/n=80/seed=2":    "13e70f38c13871733583fe380d20a50cd34e02478f9f8a40aa07aa3d0116ee16",
	"chain-tree/n=24/seed=1":        "28a3a54890655d1a141aada936520dfe4341877cdfd9d77e0ce69ee5afc4c557",
	"chain-tree/n=24/seed=2":        "01f111efc49ff9974cd6f5824775971d61b70f75d985e9a2f2df656f1edb7ef7",
	"chain-tree/n=80/seed=1":        "0ab780434285d257c498108d52d1726ff7fcf5bce711f2603f4d1b993512146e",
	"chain-tree/n=80/seed=2":        "0150f227383bb21126fe37950f64b90594118d5f3b9695320248fc4fd5a2b9ab",
	"min-diam-tree/n=24/seed=1":     "411ab0956b41566f23d1b72ca5215419986caecc98f94aaf14b23bfe1dec8c4b",
	"min-diam-tree/n=24/seed=2":     "bd608c9fb14211ce1f3c819598b9a66c4b794b54e7255eacafc1600ec920b970",
	"min-diam-tree/n=80/seed=1":     "96d412be64b0efb93d96c65014991eaec1a5757fd26aacca253002f0417a936b",
	"min-diam-tree/n=80/seed=2":     "2ff25358185ce06bf1fcd5ba625aca7e2cce4737d8b08966d998964f241c6984",
	"connectivity-ncc0/n=24/seed=1": "77eab5e91402dc3b21e1e3b9ec09fb189e541d3fa78a402768a354fe68a6ca35",
	"connectivity-ncc0/n=24/seed=2": "0a72daddca4a18dd835cef155a5c3bd266a4b220cbe389d384f1531456e9bdd5",
	"connectivity-ncc0/n=80/seed=1": "bacadfbe14d0eafb068a170cfde3192d2becbfcc91f180df95ed5430b245785d",
	"connectivity-ncc0/n=80/seed=2": "5cc375903b76b6d43ad463e3b13d92178547fc9fa76081851038a7c70c46f9bf",
	"connectivity-ncc1/n=24/seed=1": "4df1e0fbb0e0ed67f407dbeb10a5dc78fe27fa524feda32bd2785e8109d7c6a8",
	"connectivity-ncc1/n=24/seed=2": "ec7382f3f27fd229a00f76d5b7a05a08b5e37cc4487baae7d418682ce0871d92",
	"connectivity-ncc1/n=80/seed=1": "a088810801775caf3177221fb3208486324f673e835a45b069007e5d67f9dd22",
	"connectivity-ncc1/n=80/seed=2": "89fbc244ed6e553a6581bad9fc1b33b3f7c8eaf5876b0b7decde4ef3e3544f93",
}

// TestGoldenResultDigests runs every case at two sizes and two seeds through
// Execute — the path the Runner and the HTTP service use — and requires the
// recorded digest.
func TestGoldenResultDigests(t *testing.T) {
	for _, c := range goldenCases() {
		for _, n := range []int{24, 80} {
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("%s/n=%d/seed=%d", c.name, n, seed)
				t.Run(name, func(t *testing.T) {
					opt := c.opt
					opt.Seed = seed
					res := Execute(t.Context(), Job{Kind: c.kind, Seq: c.seq(n), Opt: &opt})
					if res.Err != nil {
						t.Fatalf("run failed: %v", res.Err)
					}
					got := resultDigest(res)
					if want := goldenDigests[name]; got != want {
						t.Errorf("digest %s, want %s (rounds=%d msgs=%d m=%d)",
							got, want, res.Stats.Rounds, res.Stats.Messages, res.Graph.M())
					}
				})
			}
		}
	}
}
