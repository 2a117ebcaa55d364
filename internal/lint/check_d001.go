package lint

import (
	"go/ast"
	"go/types"
)

// D001 — nondeterminism in trace-affecting packages.
//
// The engine guarantees byte-identical traces for a given (instance, seed)
// under both drivers and on every run; the cluster layer replays failed-over
// jobs on that guarantee (CLUSTER.md §6.5). Inside the engine and the
// protocol packages, three constructs silently break it:
//
//   - wall-clock reads (time.Now / time.Since / time.Until),
//   - the process-global math/rand generator (package-level rand.Intn etc. —
//     the sanctioned source is a seeded *rand.Rand via Node.Rand or
//     rand.New(rand.NewSource(...))), and
//   - ranging over a map, whose iteration order changes run to run.
//
// Sites proven trace-inert (the profile-only phaseTimer clock reads and two
// map ranges in internal/aggregate/local.go whose order cannot reach a
// trace) carry //grlint:allow D001 with a justification.
type D001 struct {
	// Packages are the import paths in scope: the engine plus every
	// protocol package that runs under it.
	Packages []string
}

func (*D001) ID() string { return "D001" }
func (*D001) Doc() string {
	return "no time.Now/time.Since, package-level math/rand, or range-over-map in trace-affecting packages"
}

// randConstructors are the package-level math/rand functions that build a
// seeded generator rather than touching the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func (c *D001) Run(pkgs []*Package) []Diagnostic {
	scope := map[string]bool{}
	for _, p := range c.Packages {
		scope[p] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		if !scope[p.PkgPath] {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					out = append(out, c.checkSelector(p, n)...)
				case *ast.RangeStmt:
					if tv, ok := p.Info.Types[n.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							out = append(out, Diagnostic{
								Pos:   p.Fset.Position(n.Pos()),
								Check: c.ID(),
								Message: "range over " + types.TypeString(tv.Type, types.RelativeTo(p.Types)) +
									": map iteration order is nondeterministic in trace-affecting package " + p.PkgPath,
							})
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// checkSelector flags references to package-level functions of time and
// math/rand. Methods (e.g. (*rand.Rand).Intn on a seeded generator, or
// time.Time.Sub on an injected timestamp) pass: only the package-global
// entry points are nondeterministic by construction.
func (c *D001) checkSelector(p *Package, sel *ast.SelectorExpr) []Diagnostic {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	var msg string
	switch path := fn.Pkg().Path(); path {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			msg = "time." + fn.Name() + " in trace-affecting package " + p.PkgPath +
				": wall-clock reads are nondeterministic"
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			msg = "package-level " + path + "." + fn.Name() +
				" draws from the process-global generator; use a seeded *rand.Rand (Node.Rand or rand.New)"
		}
	}
	if msg == "" {
		return nil
	}
	return []Diagnostic{{Pos: p.Fset.Position(sel.Sel.Pos()), Check: c.ID(), Message: msg}}
}
