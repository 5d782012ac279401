package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The fact-propagation layer: analyzers describe what a single function
// does (a base fact), and the engine answers "is any such fact reachable
// from here?" over the call graph, returning a witness path for the
// diagnostic. Two fact families are built in:
//
//   - nondeterminism facts (computed in determinism.go): the function
//     reads the wall clock, draws from the global math/rand generator,
//     or emits in map-iteration order;
//   - effect facts (this file): the function writes shared state —
//     package-level variables, receiver fields, or memory behind pointer
//     parameters. A mutex around the write changes nothing: it makes the
//     write race-free, not independent of the order tasks ran in.

// Fact is one terminal finding a reachability query can land on.
type Fact struct {
	Pos  token.Pos
	Desc string
}

// reachFact searches breadth-first from start (inclusive) for the
// nearest function with a base fact, following every edge kind. When
// includeUnresolved is set, a node with unresolved dynamic calls is
// itself terminal — the assume-impure default. The returned path runs
// start..target.
func (g *CallGraph) reachFact(start *types.Func, base func(*types.Func) *Fact, includeUnresolved bool) ([]*types.Func, *Fact) {
	type item struct {
		fn   *types.Func
		prev *item
	}
	expand := func(it *item) []*types.Func {
		path := []*types.Func{}
		for ; it != nil; it = it.prev {
			path = append([]*types.Func{it.fn}, path...)
		}
		return path
	}
	seen := map[*types.Func]bool{start: true}
	queue := []*item{{fn: start}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if f := base(it.fn); f != nil {
			return expand(it), f
		}
		node := g.Nodes[it.fn]
		if node == nil {
			continue
		}
		if includeUnresolved && len(node.Unresolved) > 0 {
			u := node.Unresolved[0]
			return expand(it), &Fact{Pos: u.Pos, Desc: "an unresolved dynamic call (" + u.Desc + ")"}
		}
		for _, e := range node.Out {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, &item{fn: e.Callee, prev: it})
			}
		}
	}
	return nil, nil
}

// sharedWrite is one write to caller-visible state. Writes rooted in the
// receiver or a pointer parameter are suppressible: when the calling
// context provably owns the object the method runs on (a local it just
// created), those writes are private and the reachability search skips
// them. Package-variable writes never are.
type sharedWrite struct {
	pos          token.Pos
	desc         string
	suppressible bool
}

// sharedWritesOf computes (and caches) the function's effect facts: its
// writes to shared roots — package-level variables, the method receiver,
// and pointer-typed parameters, everything a concurrent caller could also
// see. Nested literals are part of the function.
func (g *CallGraph) sharedWritesOf(fn *types.Func) []sharedWrite {
	if writes, ok := g.prog.effects[fn]; ok {
		return writes
	}
	var writes []sharedWrite
	if d, ok := g.Decls[fn]; ok {
		record := func(lhs ast.Expr) {
			if w := g.sharedWriteTo(d.Pkg, fn, lhs); w != nil {
				writes = append(writes, *w)
			}
		}
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					record(lhs)
				}
			case *ast.IncDecStmt:
				record(n.X)
			}
			return true
		})
	}
	if g.prog.effects == nil {
		g.prog.effects = make(map[*types.Func][]sharedWrite)
	}
	g.prog.effects[fn] = writes
	return writes
}

// sharedWriteTo reports the write when lhs stores into shared state, nil
// for local writes. fn is the function whose locals are "private".
func (g *CallGraph) sharedWriteTo(pkg *Package, fn *types.Func, lhs ast.Expr) *sharedWrite {
	root := rootIdent(lhs)
	if root == nil {
		// *p = v with a non-ident base, or a call result: treat a
		// dereference store as shared, anything else as untrackable.
		if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
			return &sharedWrite{pos: star.Pos(), desc: "memory behind a dereferenced pointer"}
		}
		return nil
	}
	obj, _ := pkg.Info.Uses[root].(*types.Var)
	if obj == nil {
		if def, ok := pkg.Info.Defs[root].(*types.Var); ok {
			obj = def
		}
	}
	if obj == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	switch {
	case isPkgLevel(obj):
		return &sharedWrite{pos: lhs.Pos(), desc: "package variable " + obj.Name()}
	case sig != nil && sig.Recv() != nil && obj == sig.Recv():
		if _, isSel := ast.Unparen(lhs).(*ast.Ident); isSel {
			return nil // rebinding the receiver ident itself is local
		}
		return &sharedWrite{pos: lhs.Pos(), desc: "receiver state " + renderLHS(lhs), suppressible: true}
	case isParamOf(sig, obj) && isPointer(obj.Type()) && !rootOnlyIdent(lhs):
		return &sharedWrite{pos: lhs.Pos(), desc: "state behind pointer parameter " + obj.Name(), suppressible: true}
	}
	return nil
}

// rootIdent finds the base identifier of an lvalue or receiver
// expression (x, x.f, x[i], x.f[i].g, *x, &x → x).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			e = v.X
		default:
			return nil
		}
	}
}

// rootOnlyIdent reports whether the lvalue is just the bare identifier
// (rebinding a parameter locally, not writing through it).
func rootOnlyIdent(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.Ident)
	return ok
}

// renderLHS prints a compact lvalue for diagnostics.
func renderLHS(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return renderLHS(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return renderLHS(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + renderLHS(v.X)
	}
	return "?"
}

// isParamOf reports whether obj is one of the signature's parameters.
func isParamOf(sig *types.Signature, obj *types.Var) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	return false
}

// isPointer reports whether t is a pointer type.
func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// reachSharedWrite searches breadth-first from start (inclusive), over
// every edge kind, for a shared write or an unresolved dynamic call.
//
// The owned flag threads RacerD-style ownership through the chain: when
// the calling context created the object a method runs on (startOwned, or
// a recvLocal edge along the way), receiver- and pointer-parameter-rooted
// writes in that method are private and skipped; package-variable writes
// and unresolved calls count regardless. A recvShared edge resets
// ownership, a recvParam edge inherits it. The returned path runs
// start..offender.
func (g *CallGraph) reachSharedWrite(start *types.Func, startOwned bool) ([]*types.Func, *Fact) {
	type key struct {
		fn    *types.Func
		owned bool
	}
	type item struct {
		fn    *types.Func
		owned bool
		prev  *item
	}
	expand := func(it *item) []*types.Func {
		var path []*types.Func
		for ; it != nil; it = it.prev {
			path = append([]*types.Func{it.fn}, path...)
		}
		return path
	}
	seen := map[key]bool{{start, startOwned}: true}
	queue := []*item{{fn: start, owned: startOwned}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, w := range g.sharedWritesOf(it.fn) {
			if it.owned && w.suppressible {
				continue
			}
			return expand(it), &Fact{Pos: w.pos, Desc: w.desc}
		}
		node := g.Nodes[it.fn]
		if node == nil {
			continue
		}
		if len(node.Unresolved) > 0 {
			u := node.Unresolved[0]
			return expand(it), &Fact{Pos: u.Pos, Desc: "an unresolved dynamic call (" + u.Desc + ")"}
		}
		for _, e := range node.Out {
			next := it.owned
			switch e.Recv {
			case recvLocal:
				next = true
			case recvShared:
				next = false
			}
			k := key{e.Callee, next}
			if !seen[k] {
				seen[k] = true
				queue = append(queue, &item{fn: e.Callee, owned: next, prev: it})
			}
		}
	}
	return nil, nil
}
