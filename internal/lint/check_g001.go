package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// G001 — zero-goroutine flat driver.
//
// The flat scheduler's contract (DESIGN.md §2, PR 6) is that an entire
// simulation runs on a single goroutine: node state between rounds is a
// stored continuation, not a parked stack. This check walks the static
// same-package call graph from every function declared in the flat-driver
// root files (flat.go, program.go) and flags any `go` statement in a
// reachable function.
//
// The traversal over-approximates: any reference to a same-package function
// or method inside a reachable body is an edge, whether or not it is a call
// (a stored function value can be invoked later). It also under-approximates
// at dynamic dispatch: calls through interfaces (Scheduler) or function
// values (Cont, hooks) are not followed — the goroutine-barrier driver that
// Sim.Run uses lives behind exactly that interface seam, by design. A
// deliberate edge out of the zero-goroutine world is severed with
// //grlint:allow G001 on the call line.
type G001 struct {
	// Pkg is the engine package import path.
	Pkg string
	// RootFiles are the base names of the flat-driver files whose declared
	// functions seed the traversal.
	RootFiles []string
}

func (*G001) ID() string { return "G001" }
func (*G001) Doc() string {
	return "no go statements reachable from the flat driver's step compilation (flat.go, program.go)"
}

func (c *G001) Run(pkgs []*Package) []Diagnostic {
	var p *Package
	for _, cand := range pkgs {
		if cand.PkgPath == c.Pkg {
			p = cand
			break
		}
	}
	if p == nil {
		return nil
	}
	roots := map[string]bool{}
	for _, f := range c.RootFiles {
		roots[f] = true
	}

	// Index every declared function/method, in deterministic source order.
	var order []*types.Func
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
				order = append(order, fn)
			}
		}
	}

	// BFS from the root-file functions, recording a parent edge for the
	// diagnostic's call chain.
	parent := map[*types.Func]*types.Func{}
	seen := map[*types.Func]bool{}
	var queue []*types.Func
	for _, fn := range order {
		file := filepath.Base(p.Fset.Position(decls[fn].Pos()).Filename)
		if roots[file] {
			seen[fn] = true
			queue = append(queue, fn)
		}
	}

	var out []Diagnostic
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				out = append(out, Diagnostic{
					Pos:   p.Fset.Position(n.Pos()),
					Check: c.ID(),
					Message: "go statement in " + funcName(fn) +
						", reachable from the flat driver's step path (" + c.chain(parent, fn) + ")",
				})
			case *ast.Ident:
				callee, ok := p.Info.Uses[n].(*types.Func)
				if !ok || seen[callee] {
					return true
				}
				if _, declared := decls[callee]; !declared {
					return true // other package, interface method, or builtin
				}
				pos := p.Fset.Position(n.Pos())
				if p.allowedAt(pos.Filename, pos.Line, c.ID()) {
					return true // deliberate edge out, severed with a justification
				}
				seen[callee] = true
				parent[callee] = fn
				queue = append(queue, callee)
			}
			return true
		})
	}
	return out
}

// chain renders the BFS path root → ... → fn.
func (c *G001) chain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	names := []string{funcName(fn)}
	for i := 0; i < 16; i++ {
		up, ok := parent[fn]
		if !ok {
			break
		}
		names = append(names, funcName(up))
		fn = up
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// funcName renders "(*T).m" for methods and "f" for functions.
func funcName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	return "(" + types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" }) + ")." + fn.Name()
}
