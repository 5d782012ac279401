package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ConcReduce vets the task-factory contract (mapreduce.ReduceTaskFactory
// and its map-side twin, MapTaskFactory): a type with a NewReduceTask or
// NewMapTask method hands the engine one private instance per task, built
// inside the task that uses it — which is what lets sharecheck's ownership
// rule treat everything the instance writes to itself as private. What
// that rule cannot see is the instance's way back to its factory, the one
// object shared by every sibling task and by every engine running the job.
// So the contract obliges:
//
//   - the factory method returns a fresh value: a composite literal or
//     new(T), directly or through a local variable bound to one — never
//     the receiver, something it stores, or a package variable;
//   - the instance type never writes its factory's state — anything
//     reached through a value of the factory's type. What a reduce task
//     counts it returns from Done. The check is the assignment's own shape:
//     calls made on the factory are not searched.
var ConcReduce = &Analyzer{
	Name: "concreduce",
	Doc:  "verify NewReduceTask and NewMapTask return a fresh instance and instances never write state reached through their factory",
	Run:  runConcReduce,
}

// factoryMethods are the contract's factory methods, one per task kind.
var factoryMethods = []string{"NewReduceTask", "NewMapTask"}

func runConcReduce(pass *Pass) {
	g := pass.Prog.CallGraph()
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		parent, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := parent.Underlying().(*types.Interface); isIface {
			continue // the contract's own interfaces
		}
		for _, method := range factoryMethods {
			sel := types.NewMethodSet(types.NewPointer(parent)).Lookup(pass.Pkg.Types, method)
			if sel == nil {
				continue
			}
			factory, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			d, ok := g.Decls[factory]
			if !ok {
				continue
			}
			for _, inst := range freshInstances(pass, d, parent, method) {
				for i := 0; i < inst.NumMethods(); i++ {
					checkInstanceMethod(pass, g, parent, inst, inst.Method(i))
				}
			}
		}
	}
}

// freshInstances checks that every value the factory method returns is one
// it just created, and returns the named types of those values.
func freshInstances(pass *Pass, d declOf, parent *types.Named, method string) []*types.Named {
	info := d.Pkg.Info
	var insts []*types.Named
	seen := make(map[*types.Named]bool)
	// created reports the named type of e when e builds a new value.
	created := func(e ast.Expr) *types.Named {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		switch v := e.(type) {
		case *ast.CompositeLit:
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); !ok || info.Uses[id] != types.Universe.Lookup("new") {
				return nil
			}
		default:
			return nil
		}
		t := info.Types[e].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, _ := t.(*types.Named)
		return named
	}
	// Locals bound (only ever) to a created value are as fresh as it is.
	bound := make(map[types.Object]*types.Named)
	stale := make(map[types.Object]bool)
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lh := range as.Lhs {
			id, ok := lh.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if named := created(as.Rhs[i]); named != nil {
				bound[obj] = named
			} else {
				stale[obj] = true
			}
		}
		return true
	})
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested literal's returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			named := created(res)
			if id, ok := ast.Unparen(res).(*ast.Ident); ok && named == nil && !stale[info.Uses[id]] {
				named = bound[info.Uses[id]]
			}
			if named == nil {
				pass.Reportf(res.Pos(),
					"%s.%s returns a value it did not just create; every task needs a fresh instance that shares nothing mutable with its parent or its siblings",
					parent.Obj().Name(), method)
				continue
			}
			if !seen[named] {
				seen[named] = true
				insts = append(insts, named)
			}
		}
		return true
	})
	return insts
}

// checkInstanceMethod reports the writes one method of an instance type
// makes to its factory.
func checkInstanceMethod(pass *Pass, g *CallGraph, parent, inst *types.Named, m *types.Func) {
	d, ok := g.Decls[m]
	if !ok {
		return
	}
	pkg := d.Pkg
	isParent := func(e ast.Expr) bool {
		t := pkg.Info.Types[e].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return t != nil && types.Identical(t, parent)
	}
	// throughParent reports whether the lvalue stores into memory reached
	// through a value of the factory's type (t.cr.work, cr.dispatch[i].N with
	// cr := t.cr) rather than into the instance itself (t.cr = nil).
	throughParent := func(lhs ast.Expr) bool {
		for {
			switch v := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				lhs = v.X
			case *ast.IndexExpr:
				lhs = v.X
			case *ast.StarExpr:
				lhs = v.X
			default:
				return false
			}
			if isParent(lhs) {
				return true
			}
		}
	}
	write := func(lhs ast.Expr) {
		if throughParent(lhs) {
			pass.Reportf(lhs.Pos(),
				"%s.%s writes factory state %s; the factory is shared by sibling tasks and by every engine running the job, so an instance keeps its state to itself (a reduce task returns its counts from Done)",
				inst.Obj().Name(), m.Name(), renderLHS(lhs))
		}
	}
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		}
		return true
	})
}
