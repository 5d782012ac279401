package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// replayed lists the module-relative import path prefixes of the packages
// whose outputs must reproduce exactly: the engine, the CMF, the shared
// data model, and the translator.
var replayed = []string{
	"internal/mapreduce",
	"internal/cmf",
	"internal/exec",
	"internal/translator",
}

// inScope reports whether the module-relative package path rel is one of
// the replayed packages or below one.
func inScope(rel string) bool {
	for _, p := range replayed {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// randConstructors are the package-level math/rand functions that build
// generators rather than draw from the global one; they are the
// *supported* way to get deterministic randomness and are never
// flagged.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// checkDeterminism flags in pkg the three sources of hidden
// nondeterminism that break byte-identical replay in the simulator's data
// paths: wall-clock reads, the globally seeded math/rand functions, and
// map iteration that feeds an emission path unsorted.
//
// The check is call-graph-transitive: a helper outside the replayed
// packages that (through any chain of in-module calls, function values
// handed off, or interface dispatch) reaches one of the three sources
// taints every replayed call site, and the diagnostic prints the
// offending call path. A chain that ends in a dynamic call the graph
// cannot bound to an in-module implementation is conservatively treated
// as nondeterministic too.
func checkDeterminism(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Fset.Position(pos),
			Check:   "determinism",
			Message: fmt.Sprintf(format, args...),
		})
	}
	// Intraprocedural pass: sources written directly in this package.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if msg, _ := nondetCall(pkg, n); msg != "" {
					report(n.Pos(), "%s", msg)
				}
			case *ast.RangeStmt:
				if msg, _ := nondetMapRange(pkg, file, n); msg != "" {
					report(n.Pos(), "%s", msg)
				}
			}
			return true
		})
	}

	// Interprocedural pass: calls (and function references) leaving the
	// replayed scope whose transitive closure reaches a source. Callees
	// inside the replayed scope are skipped — their own package run
	// reports the source directly.
	g := prog.CallGraph()
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
			node := g.Nodes[fn]
			if node == nil {
				continue
			}
			reported := make(map[token.Pos]bool) // one diagnostic per call site
			for _, e := range node.Out {
				if inScope(prog.relOf(e.Callee.Pkg())) {
					continue
				}
				if reported[e.Pos] {
					continue
				}
				path, fact := g.reachFact(e.Callee, prog.nondetFact, true)
				if fact == nil {
					continue
				}
				reported[e.Pos] = true
				verb := "call to"
				if e.Kind == EdgeRef {
					verb = "reference to"
				}
				report(e.Pos, "%s %s reaches %s via %s; nondeterminism must not be reachable from replayed code",
					verb, shortFuncName(e.Callee), fact.Desc, pathString(path))
			}
			// A dynamic call the graph could not bound is itself a
			// conservative finding: the callee may do anything.
			for _, u := range node.Unresolved {
				report(u.Pos, "dynamic call is unresolvable (%s); assume nondeterministic and keep it out of replayed code", u.Desc)
			}
		}
	}
	return diags
}

// nondetFact returns the function's first directly-written
// nondeterminism source, building the whole-program fact table on first
// use. It is the base-fact callback for reachFact.
func (prog *Program) nondetFact(fn *types.Func) *Fact {
	if !prog.nondetOnce {
		prog.nondetOnce = true
		prog.nondet = make(map[*types.Func]*Fact)
		g := prog.CallGraph()
		for f, d := range g.Decls {
			if fact := nondetFactOf(d); fact != nil {
				prog.nondet[f] = fact
			}
		}
	}
	return prog.nondet[fn]
}

// nondetFactOf extracts the first nondeterminism source written directly
// in the function body (closures included), or nil.
func nondetFactOf(d declOf) *Fact {
	var fact *Fact
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		if fact != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, short := nondetCall(d.Pkg, n); short != "" {
				fact = &Fact{Pos: n.Pos(), Desc: short}
			}
		case *ast.RangeStmt:
			if _, short := nondetMapRange(d.Pkg, d.File, n); short != "" {
				fact = &Fact{Pos: n.Pos(), Desc: short}
			}
		}
		return true
	})
	return fact
}

// nondetCall classifies time.Now and global math/rand draws, returning
// the full diagnostic message and the short description used in call
// paths ("" when the call is clean).
func nondetCall(pkg *Package, call *ast.CallExpr) (msg, short string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "", "" // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			return "time.Now reads the wall clock; use the simulated clock so runs replay byte-identically",
				"time.Now (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return fmt.Sprintf("rand.%s draws from the global generator; use a *rand.Rand seeded from the cluster/plan seed", fn.Name()),
				fmt.Sprintf("the global rand.%s", fn.Name())
		}
	case "sort":
		if fn.Name() == "Slice" || fn.Name() == "SliceStable" {
			return nondetSortComparator(pkg, fn.Name(), call)
		}
	}
	return "", ""
}

// nondetSortComparator audits a sort.Slice/SliceStable comparator literal
// for two less functions that break deterministic replay:
//
//   - float comparisons with no math.IsNaN handling: NaN compares false
//     against everything, so the "order" is not total and the sorted
//     output depends on the pivot sequence rather than the data;
//   - a single map-derived comparison with no tie-break: elements whose
//     map values collide keep whatever order the (randomized) map
//     iteration produced them in, and sort preserves that accident.
//
// A comparator that mentions math.IsNaN is taken as NaN-aware; a
// comparator combining several conditions (||, &&) is taken as carrying a
// tie-break for the map case.
func nondetSortComparator(pkg *Package, fnName string, call *ast.CallExpr) (msg, short string) {
	if len(call.Args) < 2 {
		return "", ""
	}
	lit, ok := call.Args[1].(*ast.FuncLit)
	if !ok {
		return "", ""
	}
	if floatCompare(pkg, lit.Body) && !mentionsIsNaN(pkg, lit.Body) {
		return fmt.Sprintf("sort.%s comparator orders floats without math.IsNaN handling; NaN breaks the total order, so guard it (or reject non-finite values upstream) to keep replay deterministic", fnName),
			"a NaN-unsafe float sort comparator"
	}
	if ret := soleComparison(lit.Body); ret != nil && mapDerived(pkg, ret) {
		return fmt.Sprintf("sort.%s comparator orders by map-derived values with no tie-break; elements with equal values keep the randomized map-iteration order, so add a secondary key", fnName),
			"a map-derived sort key without a tie-break"
	}
	return "", ""
}

// floatCompare reports whether the body contains an ordered comparison
// between float-typed operands.
func floatCompare(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		if t := pkg.Info.Types[be.X].Type; t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsIsNaN reports whether the body calls math.IsNaN (the sanctioned
// way to make a float comparator total).
func mentionsIsNaN(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			fn.Pkg().Path() == "math" && fn.Name() == "IsNaN" {
			found = true
			return false
		}
		return true
	})
	return found
}

// soleComparison returns the comparison expression when the comparator body
// is a single `return a < b` (no tie-break chain), nil otherwise.
func soleComparison(body *ast.BlockStmt) *ast.BinaryExpr {
	if len(body.List) != 1 {
		return nil
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	be, ok := ret.Results[0].(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return be
	}
	return nil
}

// mapDerived reports whether either side of the comparison indexes into a
// map (the sorted elements' order then hinges on values looked up per key).
func mapDerived(pkg *Package, be *ast.BinaryExpr) bool {
	derived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			if t := pkg.Info.Types[ix.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}
	return derived(be.X) || derived(be.Y)
}

// nondetMapRange classifies `range m` over a map whose body emits (calls
// an emit/output/write function or appends to a result declared outside
// the loop) when the enclosing function does not sort afterward — the
// appended slice itself, for an append. Map
// iteration order is randomized per run, so such a loop makes the
// emission order — and therefore the simulated byte stream — differ
// between identical runs.
func nondetMapRange(pkg *Package, file *ast.File, rng *ast.RangeStmt) (msg, short string) {
	t := pkg.Info.Types[rng.X].Type
	if t == nil {
		return "", ""
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return "", ""
	}
	how, dest := emissionIn(pkg, rng)
	if how == "" {
		return "", ""
	}
	if sortsAfter(pkg, file, rng, dest) {
		return "", ""
	}
	return fmt.Sprintf("map iteration order feeds %s without a later sort; iterate sorted keys so emission order replays", how),
		"unsorted map-range emission"
}

// emissionIn scans the range body for an order-sensitive emission and
// describes the first one found ("" when none). For an append it also
// returns the grown variable, the one a later sort must order.
func emissionIn(pkg *Package, rng *ast.RangeStmt) (how string, dest types.Object) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if how != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			name := calleeName(n)
			lower := strings.ToLower(name)
			if strings.HasPrefix(lower, "emit") || strings.HasPrefix(lower, "output") ||
				strings.HasPrefix(lower, "write") {
				how = "a call to " + name
				return false
			}
			if name == "append" {
				if obj := appendTarget(pkg, n, rng); obj != nil {
					how, dest = "an append to "+obj.Name(), obj
					return false
				}
			}
		}
		return true
	})
	return how, dest
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// appendTarget returns the slice being grown when the append's first
// argument is a variable declared outside the range statement (an
// accumulating result), nil otherwise.
func appendTarget(pkg *Package, call *ast.CallExpr, rng *ast.RangeStmt) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.Info.Uses[id]
	if obj == nil || obj.Pos() == 0 {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil // loop-local scratch
	}
	return obj
}

// sortsAfter reports whether the enclosing function calls into package
// sort or slices lexically after the range statement — the
// collect-then-sort idiom that restores a deterministic order before
// anything escapes. When dest is set (the loop appends to it), only a
// call whose first argument is dest counts: sorting some other slice
// leaves dest in map order.
func sortsAfter(pkg *Package, file *ast.File, rng *ast.RangeStmt, dest types.Object) bool {
	body := enclosingFuncBody(file, rng.Pos())
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					if dest == nil || firstArgIs(pkg, call, dest) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// firstArgIs reports whether the call's first argument is the variable obj.
func firstArgIs(pkg *Package, call *ast.CallExpr, obj types.Object) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pkg.Info.Uses[id] == obj
}
