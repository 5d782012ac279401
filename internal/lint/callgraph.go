package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The call graph is the interprocedural backbone of the suite: a static
// over-approximation of "who can run whom" inside the module, built once
// per loaded Program and shared by every analyzer. Three edge kinds:
//
//   - EdgeStatic: a direct call to a package function or a method on a
//     concrete receiver.
//   - EdgeDynamic: an interface method call, resolved by method-set
//     search to every in-module concrete implementation. Resolution is
//     deliberately bounded to the module: interfaces declared outside it
//     (error, io.Writer, ...) produce no edges, and an in-module
//     interface with zero in-module implementations is recorded as an
//     unresolved call — determinism treats those conservatively, as
//     assume-impure.
//   - EdgeRef: an in-module function or method referenced as a value
//     (passed as an argument, stored, returned, or taken as a method
//     value). Whoever receives the value may call it, so its effects are
//     attributed to the function that let the reference escape; calls
//     through plain func-typed values therefore need no edges of their
//     own — the binding site already carries one.
//
// Function literals are inlined into the function that declares them:
// a closure is analyzed as part of its enclosing function, which is
// exactly the scope its captured variables live in.
//
// Implementation-candidate search skips package main: programs at the
// module edge register their callbacks through the public API (covered
// by EdgeRef at their own call sites) and must not inject edges into the
// library's interface dispatch.

// EdgeKind classifies a call-graph edge.
type EdgeKind int

// The edge kinds, ordered static < dynamic < ref for stable sorting.
const (
	EdgeStatic EdgeKind = iota
	EdgeDynamic
	EdgeRef
)

// String renders the kind for diagnostics and tests.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeDynamic:
		return "dynamic"
	case EdgeRef:
		return "ref"
	}
	return "unknown"
}

// CallEdge is one caller→callee edge at a concrete source position.
type CallEdge struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
	Kind   EdgeKind
}

// UnresolvedCall records a dynamic call the builder could not bound to
// any in-module implementation. Analyzers degrade to a conservative
// default at these sites.
type UnresolvedCall struct {
	Pos  token.Pos
	Desc string
}

// CallNode is one function's outgoing view of the graph.
type CallNode struct {
	Fn  *types.Func
	Out []CallEdge
	// Unresolved lists the node's dynamic calls with no bound callee.
	Unresolved []UnresolvedCall
}

// declOf ties a function object back to its syntax and package, for
// analyzers that re-walk bodies with type information.
type declOf struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
}

// CallGraph is the module-wide graph plus the decl index.
type CallGraph struct {
	prog  *Program
	Nodes map[*types.Func]*CallNode
	// Decls maps every graphed function to its declaration.
	Decls map[*types.Func]declOf
}

// CallGraph builds (or returns the cached) call graph over every package
// the program has loaded.
func (prog *Program) CallGraph() *CallGraph {
	if prog.callgraph != nil {
		return prog.callgraph
	}
	g := &CallGraph{
		prog:  prog,
		Nodes: make(map[*types.Func]*CallNode),
		Decls: make(map[*types.Func]declOf),
	}
	pkgs := prog.sortedPkgs()
	impls := implCandidates(pkgs)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Decls[fn] = declOf{Pkg: pkg, File: file, Decl: fd}
				g.collect(pkg, fn, fd.Body, impls)
			}
		}
	}
	for _, n := range g.Nodes {
		sort.Slice(n.Out, func(i, k int) bool {
			a, b := n.Out[i], n.Out[k]
			if a.Pos != b.Pos {
				return a.Pos < b.Pos
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			return a.Callee.FullName() < b.Callee.FullName()
		})
	}
	prog.callgraph = g
	return g
}

// sortedPkgs returns the loaded packages in import-path order, the
// deterministic iteration every graph pass relies on.
func (prog *Program) sortedPkgs() []*Package {
	paths := make([]string, 0, len(prog.Pkgs))
	for p := range prog.Pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, len(paths))
	for i, p := range paths {
		pkgs[i] = prog.Pkgs[p]
	}
	return pkgs
}

// inModule reports whether the function is declared in a module package.
func (prog *Program) inModule(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == prog.ModPath || strings.HasPrefix(path, prog.ModPath+"/")
}

// relOf maps a types package to its module-relative path ("" when the
// package is outside the module).
func (prog *Program) relOf(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if path == prog.ModPath {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, prog.ModPath+"/"); ok {
		return rest
	}
	return ""
}

// implCandidates gathers every named non-interface type declared in a
// non-main module package — the universe the dynamic-dispatch search
// resolves against.
func implCandidates(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

// node returns (creating if needed) the graph node for fn.
func (g *CallGraph) node(fn *types.Func) *CallNode {
	n, ok := g.Nodes[fn]
	if !ok {
		n = &CallNode{Fn: fn}
		g.Nodes[fn] = n
	}
	return n
}

// addEdge appends an edge when the callee is an in-module function.
func (g *CallGraph) addEdge(from *types.Func, callee *types.Func, pos token.Pos, kind EdgeKind) {
	if !g.prog.inModule(callee) {
		return
	}
	n := g.node(from)
	n.Out = append(n.Out, CallEdge{Caller: from, Callee: callee, Pos: pos, Kind: kind})
}

// collect walks one function body (closures included) and records its
// edges and unresolved calls.
func (g *CallGraph) collect(pkg *Package, fn *types.Func, body *ast.BlockStmt, impls []*types.Named) {
	g.node(fn)

	// First pass: remember which expressions are the operator of a call
	// and which idents are selector fields, so the reference pass below
	// does not double-count them.
	callFun := make(map[ast.Expr]bool)
	selIdent := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callFun[ast.Unparen(n.Fun)] = true
		case *ast.SelectorExpr:
			selIdent[n.Sel] = true
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			g.classifyCall(pkg, fn, n, impls)
		case *ast.SelectorExpr:
			if callFun[n] {
				return true
			}
			// Method value / qualified function reference.
			if callee, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
				g.addEdge(fn, callee, n.Pos(), EdgeRef)
			}
		case *ast.Ident:
			if callFun[n] || selIdent[n] {
				return true
			}
			if _, isDef := pkg.Info.Defs[n]; isDef {
				return true
			}
			if callee, ok := pkg.Info.Uses[n].(*types.Func); ok {
				g.addEdge(fn, callee, n.Pos(), EdgeRef)
			}
		}
		return true
	})
}

// classifyCall resolves one call expression into edges.
func (g *CallGraph) classifyCall(pkg *Package, fn *types.Func, call *ast.CallExpr, impls []*types.Named) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if callee, ok := pkg.Info.Uses[f].(*types.Func); ok {
			g.addEdge(fn, callee, call.Pos(), EdgeStatic)
		}
		// Vars (func values), builtins and conversions carry no edge:
		// func-value bindings are covered by EdgeRef at the bind site.
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				return // func-typed field call; EdgeRef covers the store
			}
			callee, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if iface, _ := sel.Recv().Underlying().(*types.Interface); iface != nil {
				g.dispatch(fn, call, sel.Recv(), callee, impls)
				return
			}
			g.addEdge(fn, callee, call.Pos(), EdgeStatic)
			return
		}
		// Qualified call: pkg.Func (or a conversion, which has no Func).
		if callee, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			g.addEdge(fn, callee, call.Pos(), EdgeStatic)
		}
	}
	// Any other operator shape (index expression, call result, func
	// literal) is a func value whose binding sites carry EdgeRef.
}

// dispatch resolves an interface method call against the in-module
// implementation candidates. Interfaces declared outside the module are
// skipped entirely — their behavior is outside the invariants this suite
// checks — while an in-module interface with no in-module implementation
// becomes an unresolved call, the conservative default.
func (g *CallGraph) dispatch(fn *types.Func, call *ast.CallExpr, recv types.Type, method *types.Func, impls []*types.Named) {
	ifaceName := "interface"
	if named, ok := recv.(*types.Named); ok {
		if named.Obj().Pkg() != nil && g.prog.relOf(named.Obj().Pkg()) == "" {
			return // declared outside the module
		}
		ifaceName = named.Obj().Name()
	}
	iface := recv.Underlying().(*types.Interface)
	found := 0
	for _, cand := range impls {
		ptr := types.NewPointer(cand)
		if !types.Implements(ptr, iface) && !types.Implements(cand, iface) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		sel := ms.Lookup(method.Pkg(), method.Name())
		if sel == nil {
			continue
		}
		if callee, ok := sel.Obj().(*types.Func); ok {
			g.addEdge(fn, callee, call.Pos(), EdgeDynamic)
			found++
		}
	}
	if found == 0 {
		n := g.node(fn)
		n.Unresolved = append(n.Unresolved, UnresolvedCall{
			Pos:  call.Pos(),
			Desc: fmt.Sprintf("no in-module implementation of %s.%s", ifaceName, method.Name()),
		})
	}
}

// shortFuncName renders a function as pkg.Name or pkg.Type.Method, the
// form call-path diagnostics use.
func shortFuncName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// pathString renders a witness call chain for a diagnostic.
func pathString(path []*types.Func) string {
	parts := make([]string, len(path))
	for i, fn := range path {
		parts[i] = shortFuncName(fn)
	}
	return strings.Join(parts, " -> ")
}
