package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShareCheck enforces the engine's slot-write discipline inside parallel
// task bodies: a closure handed to forEachTask (or spawned with go) runs
// concurrently with its siblings, so a write to anything it captured
// makes host scheduling observable unless one of the sanctioned patterns
// applies —
//
//   - the write lands in the task's own slot of a pre-sized slice,
//     indexed by the closure's task-index parameter (slots[i] = ...);
//   - the operation goes through sync/atomic.
//
// A mutex is not a sanction: a guarded append is race-free but lands in
// the order tasks happened to run, so a body that needs one says why with
// a lint:ignore. The check is interprocedural: a helper the task body
// calls is searched (through the call graph, ownership-aware) for shared
// writes, and a dynamic call the graph cannot bound to an in-module
// implementation is conservatively assumed to write shared state.
var ShareCheck = &Analyzer{
	Name: "sharecheck",
	Doc:  "flag unguarded writes to captured state inside forEachTask closures and go-spawned bodies",
	Packages: []string{
		"internal/mapreduce",
		"internal/cmf",
		"internal/difftest",
	},
	Run: runShareCheck,
}

func runShareCheck(pass *Pass) {
	g := pass.Prog.CallGraph()
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if calleeName(n) != "forEachTask" || len(n.Args) == 0 {
						return true
					}
					lit, indexObj := taskBody(pass.Pkg, fd, n)
					if lit == nil {
						pass.Reportf(n.Args[len(n.Args)-1].Pos(),
							"task body passed to forEachTask is not statically visible; assume-shared — pass a function literal or a locally bound one")
						return true
					}
					checkTaskRegion(pass, g, fn, fd, lit, indexObj)
				case *ast.GoStmt:
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						checkTaskRegion(pass, g, fn, fd, lit, nil)
					} else {
						checkRegionCallees(pass, g, fn, fd, n.Call.Pos(), n.Call.End())
					}
				}
				return true
			})
		}
	}
}

// taskBody resolves the task closure of a forEachTask call: a function
// literal argument directly, or an identifier bound to one earlier in
// the enclosing function. The second result is the closure's task-index
// parameter object (nil when the closure declares none).
func taskBody(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr) (*ast.FuncLit, types.Object) {
	arg := ast.Unparen(call.Args[len(call.Args)-1])
	lit, ok := arg.(*ast.FuncLit)
	if !ok {
		id, isIdent := arg.(*ast.Ident)
		if !isIdent {
			return nil, nil
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return nil, nil
		}
		lit = boundFuncLit(pkg, fd, obj)
		if lit == nil {
			return nil, nil
		}
	}
	return lit, taskIndexParam(pkg, lit)
}

// boundFuncLit finds the function literal a local variable was assigned
// (replay := func(i int) error { ... }); the last binding in source
// order wins.
func boundFuncLit(pkg *Package, fd *ast.FuncDecl, obj types.Object) *ast.FuncLit {
	var lit *ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lh := range as.Lhs {
			id, ok := lh.(*ast.Ident)
			if !ok {
				continue
			}
			if pkg.Info.Defs[id] != obj && pkg.Info.Uses[id] != obj {
				continue
			}
			if l, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
				lit = l
			}
		}
		return true
	})
	return lit
}

// taskIndexParam returns the object of the closure's first parameter —
// the task index under the forEachTask convention — or nil.
func taskIndexParam(pkg *Package, lit *ast.FuncLit) types.Object {
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[params.List[0].Names[0]]
}

// checkTaskRegion vets one parallel task body; nested literals (emit
// callbacks and the like) are part of the region.
func checkTaskRegion(pass *Pass, g *CallGraph, fn *types.Func, fd *ast.FuncDecl, lit *ast.FuncLit, indexObj types.Object) {
	pkg := pass.Pkg
	reported := make(map[token.Pos]bool)
	checkWrite := func(lhs ast.Expr) {
		if w := capturedWrite(pkg, fd, lit, indexObj, lhs); w != "" && !reported[lhs.Pos()] {
			reported[lhs.Pos()] = true
			pass.Reportf(lhs.Pos(),
				"unguarded write to %s inside a parallel task body; write into a per-task slot indexed by the task index or use sync/atomic", w)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.CallExpr:
			checkCallSite(pass, g, fn, fd, lit, n, reported)
		case *ast.SelectorExpr, *ast.Ident:
			checkRefSite(pass, g, fn, n.Pos(), reported)
		}
		return true
	})
}

// capturedWrite classifies the lvalue of a write inside a task body and
// names the shared state it hits ("" when the write is safe): locals
// declared inside the closure are private, slot writes indexed by the
// task-index parameter are the sanctioned output pattern, and everything
// else captured is shared.
func capturedWrite(pkg *Package, fd *ast.FuncDecl, lit *ast.FuncLit, indexObj types.Object, lhs ast.Expr) string {
	root := rootIdent(lhs)
	if root == nil {
		if _, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
			return "memory behind a dereferenced pointer"
		}
		return ""
	}
	if root.Name == "_" {
		return ""
	}
	obj := pkg.Info.Uses[root]
	if obj == nil {
		obj = pkg.Info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
		return "" // closure-local (or the closure's own parameter)
	}
	if indexObj != nil && slotIndexed(pkg, lhs, indexObj) {
		return "" // the task's own slot
	}
	if _, isStar := ast.Unparen(lhs).(*ast.StarExpr); isStar {
		return "memory behind captured pointer " + v.Name()
	}
	switch {
	case isPkgLevel(v):
		return "package variable " + v.Name()
	case isReceiverOf(pkg, fd, v):
		return "receiver state " + renderLHS(lhs)
	default:
		return "captured variable " + v.Name()
	}
}

// slotIndexed reports whether the lvalue's access path contains an index
// by the task-index parameter (errs[i], outs[i] = append(outs[i], ...),
// slots[i].field), the disjoint-write pattern forEachTask sanctions.
func slotIndexed(pkg *Package, lhs ast.Expr, indexObj types.Object) bool {
	for {
		switch v := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(v.Index).(*ast.Ident); ok && pkg.Info.Uses[id] == indexObj {
				return true
			}
			lhs = v.X
		case *ast.SelectorExpr:
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		default:
			return false
		}
	}
}

// isReceiverOf reports whether v is the receiver of the enclosing method.
func isReceiverOf(pkg *Package, fd *ast.FuncDecl, v *types.Var) bool {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && sig.Recv() == v
}

// checkCallSite reports helpers a task body calls that transitively
// write shared state, and dynamic calls the graph could not bound
// (assume-shared).
func checkCallSite(pass *Pass, g *CallGraph, fn *types.Func, fd *ast.FuncDecl, lit *ast.FuncLit, call *ast.CallExpr, reported map[token.Pos]bool) {
	node := g.Nodes[fn]
	if node == nil {
		return
	}
	pos := call.Pos()
	for _, u := range node.Unresolved {
		if u.Pos == pos && !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos,
				"parallel task body makes an unresolvable dynamic call (%s); assume-shared — bound it to an in-module implementation or annotate the site", u.Desc)
		}
	}
	for _, e := range node.Out {
		if e.Pos != pos || e.Kind == EdgeRef {
			continue
		}
		if reported[pos] {
			return
		}
		owned := false
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if root := rootIdent(sel.X); root != nil {
				if v, ok := pass.Pkg.Info.Uses[root].(*types.Var); ok &&
					v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
					owned = true // method on an object this task created
				}
			}
		}
		path, fact := g.reachSharedWrite(e.Callee, owned)
		if fact == nil {
			continue
		}
		reported[pos] = true
		pass.Reportf(pos,
			"parallel task body calls %s, which writes %s (path %s); keep task helpers pure",
			shortFuncName(e.Callee), fact.Desc, pathString(path))
	}
}

// checkRefSite applies the same search to function references escaping
// from a task body (handed to another goroutine or stored), attributed
// at the referencing expression.
func checkRefSite(pass *Pass, g *CallGraph, fn *types.Func, pos token.Pos, reported map[token.Pos]bool) {
	node := g.Nodes[fn]
	if node == nil {
		return
	}
	for _, e := range node.Out {
		if e.Pos != pos || e.Kind != EdgeRef || reported[pos] {
			continue
		}
		path, fact := g.reachSharedWrite(e.Callee, false)
		if fact == nil {
			continue
		}
		reported[pos] = true
		pass.Reportf(pos,
			"parallel task body hands off %s, which writes %s (path %s); keep task helpers pure",
			shortFuncName(e.Callee), fact.Desc, pathString(path))
	}
}

// checkRegionCallees vets the callees of a `go f(...)` statement whose
// body is a named function rather than a literal: every edge in the span
// is searched for shared writes.
func checkRegionCallees(pass *Pass, g *CallGraph, fn *types.Func, fd *ast.FuncDecl, from, to token.Pos) {
	node := g.Nodes[fn]
	if node == nil {
		return
	}
	reported := make(map[token.Pos]bool)
	for _, e := range node.Out {
		if e.Pos < from || e.Pos >= to || reported[e.Pos] {
			continue
		}
		path, fact := g.reachSharedWrite(e.Callee, false)
		if fact == nil {
			continue
		}
		reported[e.Pos] = true
		pass.Reportf(e.Pos,
			"goroutine body %s writes %s (path %s); keep spawned code pure",
			shortFuncName(e.Callee), fact.Desc, pathString(path))
	}
	for _, u := range node.Unresolved {
		if u.Pos < from || u.Pos >= to || reported[u.Pos] {
			continue
		}
		reported[u.Pos] = true
		pass.Reportf(u.Pos,
			"goroutine body makes an unresolvable dynamic call (%s); assume-shared — bound it to an in-module implementation or annotate the site", u.Desc)
	}
}
