package lint

import "go/ast"

// G001 — no goroutines in the engine or the protocols.
//
// A simulation runs entirely on the goroutine that calls Sim.RunProgram: a
// node's state between rounds is its stored continuation, and the engine
// steps every node itself (DESIGN.md §2). A `go` statement anywhere in a
// trace-affecting package would break that, so this check flags every one
// in the non-test files of the packages in scope. A deliberate exception
// carries //grlint:allow G001 with a justification.
type G001 struct {
	// Packages are the import paths in scope: the engine plus every
	// protocol package that runs under it.
	Packages []string
}

func (*G001) ID() string { return "G001" }
func (*G001) Doc() string {
	return "no go statements in the engine or the protocol packages"
}

func (c *G001) Run(pkgs []*Package) []Diagnostic {
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
				if g, ok := n.(*ast.GoStmt); ok {
					out = append(out, Diagnostic{
						Pos:     p.Fset.Position(g.Pos()),
						Check:   c.ID(),
						Message: "go statement in " + p.PkgPath + ": a simulation runs on one goroutine",
					})
				}
				return true
			})
		}
	}
	return out
}
