// Package api is the JSON schema of the realization API, POST
// /v1/realize/{alg}: its request, response, options, stats and error bodies,
// and the table that maps a JobKind to the {alg} path element and variant
// that select it. The serving layer decodes requests and encodes responses
// with it; the cluster coordinator encodes the same requests to its workers
// and decodes their responses (CLUSTER.md §5), so both ends of the proxy hop
// share one definition. It imports nothing of the repository but the
// graphrealize facade.
package api

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"graphrealize"
)

// RealizeRequest is the body of POST /v1/realize/{alg}.
type RealizeRequest struct {
	// Sequence is the degree (or ρ) sequence to realize.
	Sequence Sequence `json:"sequence"`
	// Variant selects the algorithm flavour. degree: "implicit" (default),
	// "explicit", or "envelope"; tree: "chain" (default) or "mindiam";
	// connectivity: must be empty.
	Variant string `json:"variant,omitempty"`
	// Options tunes the simulation; nil selects the defaults.
	Options *OptionsJSON `json:"options,omitempty"`
	// OmitEdges drops the edge list from the response (stats only).
	OmitEdges bool `json:"omit_edges,omitempty"`
}

// RealizeResponse is the body of a successful realization. The realize
// route writes it with AppendJSON; a graphwire response carries it, minus
// the edge list, as its JMETA document.
type RealizeResponse struct {
	Kind      string    `json:"kind"`
	N         int       `json:"n"`
	M         int       `json:"m"`
	Edges     [][2]int  `json:"edges,omitempty"`
	Envelope  []int     `json:"envelope,omitempty"`
	Stats     StatsJSON `json:"stats"`
	Cached    bool      `json:"cached"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// OptionsJSON mirrors graphrealize.Options with JSON-friendly enums.
type OptionsJSON struct {
	// Model is "ncc0" (default) or "ncc1".
	Model string `json:"model,omitempty"`
	// Seed makes the run deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Strict turns capacity violations into errors.
	Strict bool `json:"strict,omitempty"`
	// CapMul scales the per-round message budget.
	CapMul int `json:"cap_mul,omitempty"`
	// Sort is "oracle" (default), "oddeven", or "merge".
	Sort string `json:"sort,omitempty"`
	// MaxRounds aborts runaway protocols.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Scheduler is retired: every run uses the engine's one loop. The field
	// is still decoded so that clients written when the engine offered three
	// schedulers keep working; "barrier", "pool" and "flat" are ignored and
	// any other value is rejected, as before.
	Scheduler string `json:"scheduler,omitempty"`
}

// modelNames and sortNames spell each enum value on the wire, indexed by
// the value; index 0 is the default, which the empty string also selects.
var (
	modelNames = []string{graphrealize.NCC0: "ncc0", graphrealize.NCC1: "ncc1"}
	sortNames  = []string{graphrealize.OracleSort: "oracle", graphrealize.OddEvenSort: "oddeven", graphrealize.MergeSort: "merge"}
)

// enumOf reads names backwards: the value a wire spelling selects.
func enumOf(names []string, name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	i := slices.IndexFunc(names, func(n string) bool { return strings.EqualFold(n, name) })
	return i, i >= 0
}

// nameOf spells a non-default value; the default stays empty, so it is
// omitted from the JSON.
func nameOf(names []string, v int) string {
	if v <= 0 || v >= len(names) {
		return ""
	}
	return names[v]
}

// Options maps the wire options onto facade Options; nil stays nil.
func (o *OptionsJSON) Options() (*graphrealize.Options, error) {
	if o == nil {
		return nil, nil
	}
	if o.CapMul < 0 {
		return nil, fmt.Errorf("cap_mul %d is negative (0 selects the default)", o.CapMul)
	}
	if o.MaxRounds < 0 {
		return nil, fmt.Errorf("max_rounds %d is negative (0 selects the default)", o.MaxRounds)
	}
	model, ok := enumOf(modelNames, o.Model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q (want ncc0 or ncc1)", o.Model)
	}
	sort, ok := enumOf(sortNames, o.Sort)
	if !ok {
		return nil, fmt.Errorf("unknown sort %q (want oracle, oddeven, or merge)", o.Sort)
	}
	switch strings.ToLower(o.Scheduler) {
	case "", "barrier", "pool", "flat":
	default:
		return nil, fmt.Errorf("unknown scheduler %q (want barrier, pool or flat)", o.Scheduler)
	}
	return &graphrealize.Options{
		Model:     graphrealize.Model(model),
		Seed:      o.Seed,
		Strict:    o.Strict,
		CapMul:    o.CapMul,
		Sort:      graphrealize.SortMethod(sort),
		MaxRounds: o.MaxRounds,
	}, nil
}

// OptionsOf is the inverse of Options: the wire form of every
// outcome-affecting field of o, the route key's options (CLUSTER.md §5.2).
// The Progress and Profile hooks do not travel. nil stays nil.
func OptionsOf(o *graphrealize.Options) *OptionsJSON {
	if o == nil {
		return nil
	}
	return &OptionsJSON{
		Model:     nameOf(modelNames, int(o.Model)),
		Seed:      o.Seed,
		Strict:    o.Strict,
		CapMul:    o.CapMul,
		Sort:      nameOf(sortNames, int(o.Sort)),
		MaxRounds: o.MaxRounds,
	}
}

// StatsJSON mirrors graphrealize.Stats field for field, so the two convert
// into each other and a field added to Stats cannot be left off the wire.
type StatsJSON struct {
	N             int   `json:"n"`
	Rounds        int   `json:"rounds"`
	ChargedRounds int   `json:"charged_rounds"`
	Messages      int64 `json:"messages"`
	Capacity      int   `json:"capacity"`
	MaxSent       int   `json:"max_sent"`
	MaxRecv       int   `json:"max_recv"`
	CapViolations int   `json:"cap_violations"`
	Phases        int   `json:"phases,omitempty"`
}

// StatsOf is the wire form of s; nil gives the zero value.
func StatsOf(s *graphrealize.Stats) StatsJSON {
	if s == nil {
		return StatsJSON{}
	}
	return StatsJSON(*s)
}

// Stats is the inverse of StatsOf.
func (s StatsJSON) Stats() *graphrealize.Stats {
	st := graphrealize.Stats(s)
	return &st
}

// routes is the kind ↔ (/v1/realize/{alg}, variant) table, read in both
// directions: KindFor resolves a request to its kind, RouteOf turns a kind
// back into the request that resolves to it (CLUSTER.md §5.1). Each row's
// first variant is the one RouteOf sends; "" selects the algorithm's
// default.
var routes = []struct {
	kind     graphrealize.JobKind
	alg      string
	variants []string
}{
	{graphrealize.JobDegrees, "degree", []string{"", "implicit"}},
	{graphrealize.JobDegreesExplicit, "degree", []string{"explicit"}},
	{graphrealize.JobUpperEnvelope, "degree", []string{"envelope"}},
	{graphrealize.JobChainTree, "tree", []string{"", "chain"}},
	{graphrealize.JobMinDiamTree, "tree", []string{"mindiam", "min-diam", "greedy"}},
	{graphrealize.JobConnectivity, "connectivity", []string{""}},
}

// ErrUnknownAlgorithm reports an {alg} path element that names no
// algorithm (404), as opposed to a bad variant of a known one (400).
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// KindFor resolves POST /v1/realize/{alg} with the request's variant to a
// JobKind.
func KindFor(alg, variant string) (graphrealize.JobKind, error) {
	var known []string
	for _, r := range routes {
		if r.alg != alg {
			continue
		}
		if slices.Contains(r.variants, variant) {
			return r.kind, nil
		}
		known = append(known, r.variants...)
	}
	if known == nil {
		return 0, fmt.Errorf("%w %q (want degree, tree, or connectivity)", ErrUnknownAlgorithm, alg)
	}
	return 0, fmt.Errorf("unknown %s variant %q (want one of %q)", alg, variant, known)
}

// RouteOf is the inverse of KindFor: the {alg} and variant of a request
// for kind k. ok is false for a kind outside the table.
func RouteOf(k graphrealize.JobKind) (alg, variant string, ok bool) {
	for _, r := range routes {
		if r.kind == k {
			return r.alg, r.variants[0], true
		}
	}
	return "", "", false
}
