// Package optanalysis is a MANIMAL-style static optimizer for
// hand-written MapReduce programs (Jahani, Cafarella & Ré: analyze the
// user's compiled map/reduce code, recover the relational operations it
// hides, and exploit them without changing its semantics). The YSmart
// paper treats hand-coded jobs as the efficiency ceiling; this package
// closes part of the gap from the other side, for the naive programs
// people actually write.
//
// The analyzer loads the module's source through internal/lint, finds
// every mapreduce.Job composite literal, and infers three kinds of facts:
//
//   - selection predicates the mapper evaluates on decoded fields before
//     its first emit — comparisons against constants, reachable through
//     single-return helper functions via the call graph;
//   - selection predicates the reducer evaluates per value inside its
//     range-over-values loop (guards that `continue`);
//   - per-job live-column sets: which schema columns the reduce function
//     actually reads from the map value.
//
// Each fact funds a rewrite applied at run time, matched to jobs by their
// literal name:
//
//   - early-filter: lines the mapper's own guard would drop are reported
//     as mapreduce.ErrFiltered before the mapper runs;
//   - reducer-pushdown: map-output pairs the reducer's guard would skip
//     are dropped at the map side;
//   - projection-trim: dead value columns are rewritten to NULL, so the
//     shuffle never carries bytes nobody reads.
//
// Everything unprovable is refused with a recorded reason: non-literal
// job names, schemas that do not resolve to a catalog table, rows or
// values that escape to unanalyzed code, emits outside the value loop,
// combiners (which read the map values the rewrites would change). The
// rewrites mirror the Go semantics of the analyzed source — a NULL
// field's zero-valued accessor compares exactly as the user's code would
// — so results stay byte-identical by construction.
package optanalysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/lint"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// Rewrite kinds and refusal scopes.
const (
	KindEarlyFilter = "early-filter"
	KindPushdown    = "reducer-pushdown"
	KindTrim        = "projection-trim"
	KindJob         = "job"
)

// maxHelperDepth bounds guard discharge through helper calls.
const maxHelperDepth = 4

// Analyze loads the packages matched by patterns (lint.Load semantics:
// "./..." or explicit directories, resolved relative to dir) and returns
// the optimization report for every mapreduce.Job literal found.
func Analyze(dir string, patterns []string) (*Report, error) {
	prog, targets, err := lint.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	an := &analyzer{prog: prog}
	rep := &Report{}
	for _, t := range targets {
		for _, file := range t.Pkg.Files {
			pkg := t.Pkg
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !an.isJobLit(pkg, lit) {
					return true
				}
				rep.Jobs = append(rep.Jobs, an.analyzeJob(pkg, lit))
				return false
			})
		}
	}
	sort.Slice(rep.Jobs, func(i, k int) bool {
		a, b := rep.Jobs[i], rep.Jobs[k]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Pos < b.Pos
	})
	return rep, nil
}

// analyzer carries the loaded program through one Analyze call.
type analyzer struct {
	prog *lint.Program
}

// posOf renders a file:line position.
func (an *analyzer) posOf(p token.Pos) string {
	pos := an.prog.Fset.Position(p)
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// isJobLit reports whether the composite literal builds a mapreduce.Job.
func (an *analyzer) isJobLit(pkg *lint.Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Job" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/mapreduce")
}

// litField returns the value of a named field in a composite literal.
func litField(lit *ast.CompositeLit, name string) ast.Expr {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return kv.Value
		}
	}
	return nil
}

// analyzeJob derives the report entry for one Job literal.
func (an *analyzer) analyzeJob(pkg *lint.Package, lit *ast.CompositeLit) *JobReport {
	jr := &JobReport{Pos: an.posOf(lit.Pos())}

	nameExpr := litField(lit, "Name")
	if nameExpr == nil {
		jr.refuse(KindJob, -1, "job literal has no Name field", jr.Pos)
		return jr
	}
	tv := pkg.Info.Types[nameExpr]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		jr.refuse(KindJob, -1,
			"job name is not a constant: the rewriter matches source jobs to runtime jobs by name",
			an.posOf(nameExpr.Pos()))
		return jr
	}
	jr.Name = constant.StringVal(tv.Value)

	hasCombiner := litField(lit, "Combiner") != nil

	// Reducer facts first: they gate the per-input value rewrites.
	rf := an.analyzeReducer(pkg, lit)

	inputsExpr, ok := litField(lit, "Inputs").(*ast.CompositeLit)
	if !ok {
		jr.refuse(KindJob, -1, "Inputs is not a slice literal; input order cannot be matched to the runtime job", jr.Pos)
		return jr
	}
	for idx, el := range inputsExpr.Elts {
		inLit, ok := el.(*ast.CompositeLit)
		if !ok {
			jr.refuse(KindJob, idx, "input is not a composite literal", an.posOf(el.Pos()))
			continue
		}
		mf := an.analyzeInput(pkg, inLit)
		an.assemble(jr, idx, mf, rf, hasCombiner)
	}
	return jr
}

// assemble turns the facts of one input (plus the job's reducer facts)
// into rewrites and refusals.
func (an *analyzer) assemble(jr *JobReport, idx int, mf mapperFacts, rf reducerFacts, hasCombiner bool) {
	if mf.refusal != "" {
		jr.refuse(KindJob, idx, mf.refusal, mf.pos)
		return
	}

	// Early filter: the mapper's own leading guard, hoisted to the scan.
	if mf.guard != nil {
		schema, keep := mf.schema, mf.guard
		jr.Rewrites = append(jr.Rewrites, &Rewrite{
			Job:       jr.Name,
			Input:     idx,
			Kind:      KindEarlyFilter,
			Table:     mf.table,
			Predicate: keep.render(schema),
			Path:      strings.Join(keep.path, " -> "),
			schema:    schema,
			guard:     keep,
		})
	} else {
		jr.refuse(KindEarlyFilter, idx, mf.guardRefusal, mf.pos)
	}

	// Value rewrites need the reducer's whole read-set bounded, the map
	// value to be the re-encoded input row, and no combiner in between.
	switch {
	case hasCombiner:
		jr.refuse(KindPushdown, idx, "job has a combiner, which reads the map values the rewrite would change", mf.pos)
		jr.refuse(KindTrim, idx, "job has a combiner, which reads the map values the rewrite would change", mf.pos)
		return
	case !mf.emitsRow:
		jr.refuse(KindPushdown, idx, mf.emitRefusal, mf.pos)
		jr.refuse(KindTrim, idx, mf.emitRefusal, mf.pos)
		return
	case rf.refusal != "":
		jr.refuse(KindPushdown, idx, rf.refusal, rf.pos)
		jr.refuse(KindTrim, idx, rf.refusal, rf.pos)
		return
	case rf.table != "" && rf.table != mf.table:
		reason := fmt.Sprintf("reducer decodes values with the %s schema but this input scans %s", rf.table, mf.table)
		jr.refuse(KindPushdown, idx, reason, mf.pos)
		jr.refuse(KindTrim, idx, reason, mf.pos)
		return
	}

	if rf.guard != nil {
		schema, keep := mf.schema, rf.guard
		jr.Rewrites = append(jr.Rewrites, &Rewrite{
			Job:       jr.Name,
			Input:     idx,
			Kind:      KindPushdown,
			Table:     mf.table,
			Predicate: keep.render(schema),
			schema:    schema,
			guard:     keep,
		})
	} else {
		jr.refuse(KindPushdown, idx, rf.guardRefusal, rf.pos)
	}

	var dead []int
	var deadNames []string
	for c := 0; c < mf.schema.Len(); c++ {
		if !rf.live[c] {
			dead = append(dead, c)
			deadNames = append(deadNames, mf.schema.Cols[c].Name)
		}
	}
	if len(dead) > 0 {
		jr.Rewrites = append(jr.Rewrites, &Rewrite{
			Job:     jr.Name,
			Input:   idx,
			Kind:    KindTrim,
			Table:   mf.table,
			Columns: deadNames,
			schema:  mf.schema,
			dead:    dead,
		})
	} else {
		jr.refuse(KindTrim, idx, "the reducer reads every column of the map value", rf.pos)
	}
}

// ---------------------------------------------------------------------------
// Mapper analysis
// ---------------------------------------------------------------------------

// mapperFacts is what the analyzer proved about one input's map function.
type mapperFacts struct {
	table  string
	schema *exec.Schema
	// guard is the conjunction a line must satisfy to survive the
	// mapper's leading early-returns (nil with guardRefusal otherwise).
	guard        *pred
	guardRefusal string
	// emitsRow reports that every emit's value is exec.EncodeRow of the
	// decoded row (emitRefusal otherwise).
	emitsRow    bool
	emitRefusal string
	// refusal, when set, blocks every rewrite for the input.
	refusal string
	pos     string
}

// funcOf resolves an expression like mapreduce.MapperFunc(f) — where f is
// a func literal or a reference to a declared function — to the function
// body plus the defining package and parameter objects.
func (an *analyzer) funcOf(pkg *lint.Package, e ast.Expr) (*lint.Package, *ast.FuncType, *ast.BlockStmt) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if ok && len(call.Args) == 1 {
		// The MapperFunc/ReducerFunc conversion wrapper.
		e = call.Args[0]
	}
	switch f := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return pkg, f.Type, f.Body
	case *ast.Ident:
		fn, ok := pkg.Info.Uses[f].(*types.Func)
		if !ok {
			return nil, nil, nil
		}
		d, ok := an.prog.CallGraph().Decls[fn]
		if !ok || d.Decl.Body == nil {
			return nil, nil, nil
		}
		return d.Pkg, d.Decl.Type, d.Decl.Body
	}
	return nil, nil, nil
}

// paramVar returns the types.Var of the i-th parameter.
func paramVar(pkg *lint.Package, ft *ast.FuncType, i int) *types.Var {
	n := 0
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if n == i {
				v, _ := pkg.Info.Defs[name].(*types.Var)
				return v
			}
			n++
		}
	}
	return nil
}

// analyzeInput derives mapper facts from one Inputs element literal.
func (an *analyzer) analyzeInput(pkg *lint.Package, inLit *ast.CompositeLit) mapperFacts {
	mf := mapperFacts{pos: an.posOf(inLit.Pos())}
	mapperExpr := litField(inLit, "Mapper")
	if mapperExpr == nil {
		mf.refusal = "input has no Mapper field"
		return mf
	}
	fpkg, ftype, body := an.funcOf(pkg, mapperExpr)
	if body == nil {
		mf.refusal = "mapper is not a func literal or in-module function"
		return mf
	}
	lineVar, emitVar := paramVar(fpkg, ftype, 0), paramVar(fpkg, ftype, 1)
	if lineVar == nil || emitVar == nil {
		mf.refusal = "mapper does not name its line and emit parameters"
		return mf
	}
	mf.pos = an.posOf(body.Pos())

	stmts := body.List
	rowVar, table, ok := an.parseDecode(fpkg, stmts, lineVar)
	if !ok {
		mf.refusal = "mapper does not start with `row, err := exec.DecodeRow(line, <schema>)` plus the err check"
		return mf
	}
	schema, okT := queries.Catalog().Table(table)
	if !okT {
		mf.refusal = fmt.Sprintf("decode schema resolves to %q, which is not a catalog table", table)
		return mf
	}
	mf.table, mf.schema = table, schema

	// Leading guards: `if <cond> { return nil }` runs dropping lines
	// before anything can emit, so the negated conjunction is a sound
	// early filter.
	idx := 2
	for idx < len(stmts) {
		ifs, ok := stmts[idx].(*ast.IfStmt)
		if !ok || ifs.Else != nil || ifs.Init != nil || !isReturnNil(ifs.Body) {
			break
		}
		p, err := an.guardPred(fpkg, ifs.Cond, rowVar, false, 0, nil)
		if err != nil {
			mf.guardRefusal = fmt.Sprintf("guard at %s: %v", an.posOf(ifs.Pos()), err)
			mf.guard = nil
			break
		}
		mf.guard = mf.guard.and(p)
		idx++
	}
	if mf.guard == nil && mf.guardRefusal == "" {
		mf.guardRefusal = "mapper has no leading constant-comparison guard after the decode err check"
	}

	// Emit shape: every emit's value must be the re-encoded decoded row
	// for the value rewrites to know what the reducer receives.
	emits := 0
	badEmit := ""
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fpkg.Info.Uses[id] != emitVar {
			return true
		}
		emits++
		if len(call.Args) != 2 || !an.isEncodeRowOf(fpkg, call.Args[1], rowVar) {
			badEmit = an.posOf(call.Pos())
		}
		return true
	})
	switch {
	case emits == 0:
		mf.emitRefusal = "mapper never calls emit directly; the map value shape is unknown"
	case badEmit != "":
		mf.emitRefusal = fmt.Sprintf("map value at %s is not exec.EncodeRow of the decoded row", badEmit)
	default:
		mf.emitsRow = true
	}
	return mf
}

// parseDecode matches the two-statement decode idiom and resolves the
// schema argument to a catalog table name.
func (an *analyzer) parseDecode(pkg *lint.Package, stmts []ast.Stmt, lineVar *types.Var) (rowVar *types.Var, table string, ok bool) {
	if len(stmts) < 2 {
		return nil, "", false
	}
	as, ok2 := stmts[0].(*ast.AssignStmt)
	if !ok2 || as.Tok != token.DEFINE || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil, "", false
	}
	call, ok2 := as.Rhs[0].(*ast.CallExpr)
	if !ok2 || len(call.Args) != 2 || !isPkgFunc(pkg, call.Fun, "exec", "DecodeRow") {
		return nil, "", false
	}
	if id, ok2 := ast.Unparen(call.Args[0]).(*ast.Ident); !ok2 || pkg.Info.Uses[id] != lineVar {
		return nil, "", false
	}
	table, ok2 = an.tableOf(pkg, call.Args[1])
	if !ok2 {
		return nil, "", false
	}
	rowID, ok2 := as.Lhs[0].(*ast.Ident)
	if !ok2 {
		return nil, "", false
	}
	rowVar, _ = pkg.Info.Defs[rowID].(*types.Var)
	errID, ok2 := as.Lhs[1].(*ast.Ident)
	if rowVar == nil || !ok2 {
		return nil, "", false
	}
	errVar, _ := pkg.Info.Defs[errID].(*types.Var)

	// `if err != nil { return err }`
	ifs, ok2 := stmts[1].(*ast.IfStmt)
	if !ok2 || ifs.Else != nil || len(ifs.Body.List) != 1 {
		return nil, "", false
	}
	cond, ok2 := ifs.Cond.(*ast.BinaryExpr)
	if !ok2 || cond.Op != token.NEQ {
		return nil, "", false
	}
	condID, ok2 := ast.Unparen(cond.X).(*ast.Ident)
	if !ok2 || errVar == nil || pkg.Info.Uses[condID] != errVar {
		return nil, "", false
	}
	if _, ok2 := ifs.Body.List[0].(*ast.ReturnStmt); !ok2 {
		return nil, "", false
	}
	return rowVar, table, true
}

// tableOf resolves a schema expression — a package-level var initialized
// from a one-string-argument call (mustSchema("clicks")), or such a call
// inline — to the table-name string literal.
func (an *analyzer) tableOf(pkg *lint.Package, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return "", false
		}
		init := an.varInit(v)
		if init == nil {
			return "", false
		}
		e = init
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	// The constant value is recorded in whichever package declares the
	// initializer; a string constant folds identically everywhere.
	for _, p := range an.prog.Pkgs {
		if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return constant.StringVal(tv.Value), true
		}
	}
	return "", false
}

// varInit finds the initializer expression of a package-level var.
func (an *analyzer) varInit(v *types.Var) ast.Expr {
	if v.Pkg() == nil {
		return nil
	}
	pkg := an.prog.Pkgs[v.Pkg().Path()]
	if pkg == nil {
		return nil
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					if pkg.Info.Defs[name] == v {
						return vs.Values[i]
					}
				}
			}
		}
	}
	return nil
}

// isReturnNil matches a block that is exactly `return nil`.
func isReturnNil(b *ast.BlockStmt) bool {
	if len(b.List) != 1 {
		return false
	}
	ret, ok := b.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	id, ok := ret.Results[0].(*ast.Ident)
	return ok && id.Name == "nil"
}

// isPkgFunc reports whether the call operator is the named function of
// the named package (matched by package name, resolved by types).
func isPkgFunc(pkg *lint.Package, fun ast.Expr, pkgName, fnName string) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == fnName && fn.Pkg() != nil && fn.Pkg().Name() == pkgName
}

// isEncodeRowOf matches exec.EncodeRow(row) for the tracked row var.
func (an *analyzer) isEncodeRowOf(pkg *lint.Package, e ast.Expr, rowVar *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || !isPkgFunc(pkg, call.Fun, "exec", "EncodeRow") {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pkg.Info.Uses[id] == rowVar
}

// ---------------------------------------------------------------------------
// Reducer analysis
// ---------------------------------------------------------------------------

// reducerFacts is what the analyzer proved about a job's reduce function.
type reducerFacts struct {
	// refusal, when set, blocks pushdown and trim for the whole job: the
	// reducer's reads could not be bounded.
	refusal string
	// table is the schema the reducer decodes values with ("" when it
	// never decodes them — e.g. a pure len(values) count).
	table string
	// live is the set of value columns the reducer reads.
	live map[int]bool
	// guard is the per-value keep-predicate eligible for pushdown (nil
	// with guardRefusal otherwise).
	guard        *pred
	guardRefusal string
	pos          string
}

// analyzeReducer derives reducer facts from the Job literal's Reducer
// field.
func (an *analyzer) analyzeReducer(pkg *lint.Package, jobLit *ast.CompositeLit) reducerFacts {
	rf := reducerFacts{live: map[int]bool{}, pos: an.posOf(jobLit.Pos())}
	redExpr := litField(jobLit, "Reducer")
	if redExpr == nil {
		rf.refusal = "job literal has no Reducer field"
		return rf
	}
	fpkg, ftype, body := an.funcOf(pkg, redExpr)
	if body == nil {
		rf.refusal = "reducer is not a func literal or in-module function"
		return rf
	}
	valuesVar, emitVar := paramVar(fpkg, ftype, 1), paramVar(fpkg, ftype, 2)
	if valuesVar == nil || emitVar == nil {
		rf.refusal = "reducer does not name its values and emit parameters"
		return rf
	}
	rf.pos = an.posOf(body.Pos())

	// Bound every use of the values slice: len(values) or one range loop.
	var loop *ast.RangeStmt
	usesLen := false
	bad := ""
	inspectParents(body, func(n ast.Node, parents []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || fpkg.Info.Uses[id] != valuesVar {
			return
		}
		switch p := parent(parents, 0).(type) {
		case *ast.CallExpr:
			if fid, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && fid.Name == "len" {
				usesLen = true
				return
			}
		case *ast.RangeStmt:
			if p.X == n {
				if loop != nil && loop != p {
					bad = fmt.Sprintf("reducer ranges over values more than once (%s)", an.posOf(id.Pos()))
					return
				}
				loop = p
				return
			}
		}
		bad = fmt.Sprintf("values escapes the supported len/range uses at %s", an.posOf(id.Pos()))
	})
	if bad != "" {
		rf.refusal = bad
		return rf
	}

	if loop == nil {
		// A reducer that never looks inside the values reads no columns;
		// pushdown has no guard to hoist.
		rf.guardRefusal = "reducer has no per-value loop, so there is no guard to push down"
		an.checkEmitPlacement(fpkg, body, nil, token.NoPos, emitVar, &rf, usesLen)
		return rf
	}

	vrowVar, table, guardEnd := an.parseValueLoop(fpkg, loop, &rf)
	if rf.refusal != "" {
		return rf
	}
	rf.table = table

	// Live columns: every read of the decoded value row must be an
	// indexed field access.
	if vrowVar != nil {
		inspectParents(body, func(n ast.Node, parents []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || fpkg.Info.Uses[id] != vrowVar {
				return
			}
			ix, ok := parent(parents, 0).(*ast.IndexExpr)
			if ok && ix.X == n {
				if tv := fpkg.Info.Types[ix.Index]; tv.Value != nil && tv.Value.Kind() == constant.Int {
					c, _ := constant.Int64Val(tv.Value)
					rf.live[int(c)] = true
					return
				}
			}
			rf.refusal = fmt.Sprintf("decoded value row escapes a constant-indexed read at %s", an.posOf(id.Pos()))
		})
		if rf.refusal != "" {
			return rf
		}
	}

	an.checkEmitPlacement(fpkg, body, loop, guardEnd, emitVar, &rf, usesLen)
	return rf
}

// parseValueLoop matches the loop prefix `vrow, err := exec.DecodeRow(v,
// <schema>); if err != nil { return err }` followed by `if <atom> {
// continue }` guards, filling rf.guard. Returns the decoded row var, its
// table, and the source end of the last guard.
func (an *analyzer) parseValueLoop(pkg *lint.Package, loop *ast.RangeStmt, rf *reducerFacts) (*types.Var, string, token.Pos) {
	vID, ok := loop.Value.(*ast.Ident)
	if !ok {
		rf.guardRefusal = "value loop discards the element, so there is no guard to push down"
		return nil, "", loop.Body.Pos()
	}
	vVar, _ := pkg.Info.Defs[vID].(*types.Var)
	if vVar == nil {
		rf.refusal = "cannot resolve the value loop variable"
		return nil, "", token.NoPos
	}

	stmts := loop.Body.List
	vrowVar, table, okD := an.parseDecode(pkg, stmts, vVar)
	if !okD {
		// The loop does something else with v entirely; any use beyond
		// DecodeRow is an escape.
		esc := ""
		inspectParents(loop.Body, func(n ast.Node, parents []ast.Node) {
			id, okI := n.(*ast.Ident)
			if okI && pkg.Info.Uses[id] == vVar && esc == "" {
				esc = an.posOf(id.Pos())
			}
		})
		if esc != "" {
			rf.refusal = fmt.Sprintf("raw map value is used without the DecodeRow idiom at %s; its reads cannot be bounded", esc)
		} else {
			rf.guardRefusal = "value loop reads no fields, so there is no guard to push down"
		}
		return nil, "", token.NoPos
	}
	// v must feed DecodeRow and nothing else.
	vUses, decodeUse := 0, 1
	inspectParents(loop.Body, func(n ast.Node, parents []ast.Node) {
		if id, okI := n.(*ast.Ident); okI && pkg.Info.Uses[id] == vVar {
			vUses++
		}
	})
	if vUses > decodeUse {
		rf.refusal = "raw map value escapes beyond its DecodeRow; its reads cannot be bounded"
		return nil, "", token.NoPos
	}

	guardEnd := stmts[1].End()
	idx := 2
	for idx < len(stmts) {
		ifs, okI := stmts[idx].(*ast.IfStmt)
		if !okI || ifs.Else != nil || ifs.Init != nil || !isContinue(ifs.Body) {
			break
		}
		p, err := an.guardPred(pkg, ifs.Cond, vrowVar, false, 0, nil)
		if err != nil {
			rf.guardRefusal = fmt.Sprintf("guard at %s: %v", an.posOf(ifs.Pos()), err)
			rf.guard = nil
			return vrowVar, table, guardEnd
		}
		rf.guard = rf.guard.and(p)
		guardEnd = ifs.End()
		idx++
	}
	if rf.guard == nil {
		rf.guardRefusal = "value loop has no leading constant-comparison guard"
	}
	return vrowVar, table, guardEnd
}

// checkEmitPlacement enforces the pushdown placement rule: every emit
// must sit inside the value loop, after the last guard, and the reducer
// must not read len(values) (the pushdown changes it). Violations refuse
// pushdown only — trimming never changes the pair multiset.
func (an *analyzer) checkEmitPlacement(pkg *lint.Package, body *ast.BlockStmt, loop *ast.RangeStmt, guardEnd token.Pos, emitVar *types.Var, rf *reducerFacts, usesLen bool) {
	if rf.guard == nil {
		return
	}
	block := func(reason string) {
		rf.guard = nil
		rf.guardRefusal = reason
	}
	if usesLen {
		block("reducer reads len(values), which dropping pairs would change")
		return
	}
	violation := ""
	inspectParents(body, func(n ast.Node, parents []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || pkg.Info.Uses[id] != emitVar || violation != "" {
			return
		}
		call, ok := parent(parents, 0).(*ast.CallExpr)
		if !ok || call.Fun != ast.Expr(id) {
			violation = fmt.Sprintf("emit escapes as a value at %s", an.posOf(id.Pos()))
			return
		}
		if loop == nil || id.Pos() < loop.Body.Pos() || id.Pos() >= loop.Body.End() {
			violation = fmt.Sprintf("emit at %s is outside the per-value loop; an all-dropped group would lose it", an.posOf(id.Pos()))
			return
		}
		if id.Pos() < guardEnd {
			violation = fmt.Sprintf("emit at %s runs before the guard", an.posOf(id.Pos()))
		}
	})
	if violation != "" {
		block(violation)
	}
}

// isContinue matches a block that is exactly `continue`.
func isContinue(b *ast.BlockStmt) bool {
	if len(b.List) != 1 {
		return false
	}
	br, ok := b.List[0].(*ast.BranchStmt)
	return ok && br.Tok == token.CONTINUE && br.Label == nil
}

// ---------------------------------------------------------------------------
// Guard predicates
// ---------------------------------------------------------------------------

// guardPred converts a boolean expression over the decoded row into the
// conjunction of atoms under which it holds (sense=true) or fails
// (sense=false). Helper calls discharge through single-return in-module
// functions of one row parameter, recorded on the predicate's path.
func (an *analyzer) guardPred(pkg *lint.Package, e ast.Expr, rowVar *types.Var, sense bool, depth int, path []string) (*pred, error) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return an.guardPred(pkg, x.X, rowVar, !sense, depth, path)
		}
	case *ast.BinaryExpr:
		switch {
		case x.Op == token.LAND && sense, x.Op == token.LOR && !sense:
			// sense(a && b) and ¬(a || b) are both conjunctions.
			l, err := an.guardPred(pkg, x.X, rowVar, sense, depth, path)
			if err != nil {
				return nil, err
			}
			r, err := an.guardPred(pkg, x.Y, rowVar, sense, depth, path)
			if err != nil {
				return nil, err
			}
			return l.and(r), nil
		case x.Op == token.LAND, x.Op == token.LOR:
			return nil, fmt.Errorf("the guard needs a disjunction, which the early filter cannot represent as a conjunction")
		default:
			a, err := an.atomOf(pkg, x, rowVar)
			if err != nil {
				return nil, err
			}
			if !sense {
				a.op = negateOp(a.op)
			}
			return &pred{atoms: []atom{a}, path: path}, nil
		}
	case *ast.CallExpr:
		if depth >= maxHelperDepth {
			return nil, fmt.Errorf("guard helpers nest deeper than %d calls", maxHelperDepth)
		}
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("guard helper takes more than the row")
		}
		if id, ok := ast.Unparen(x.Args[0]).(*ast.Ident); !ok || pkg.Info.Uses[id] != rowVar {
			return nil, fmt.Errorf("guard helper is not applied to the decoded row")
		}
		var fn *types.Func
		switch f := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			fn, _ = pkg.Info.Uses[f].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = pkg.Info.Uses[f.Sel].(*types.Func)
		}
		if fn == nil {
			return nil, fmt.Errorf("guard calls something that is not a declared function")
		}
		d, ok := an.prog.CallGraph().Decls[fn]
		if !ok || d.Decl.Body == nil || len(d.Decl.Body.List) != 1 {
			return nil, fmt.Errorf("guard helper %s is not a single-return in-module function", fn.Name())
		}
		ret, ok := d.Decl.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return nil, fmt.Errorf("guard helper %s is not a single-return function", fn.Name())
		}
		hRow := paramVar(d.Pkg, d.Decl.Type, 0)
		if hRow == nil {
			return nil, fmt.Errorf("guard helper %s has no row parameter", fn.Name())
		}
		return an.guardPred(d.Pkg, ret.Results[0], hRow, sense, depth+1, append(path, fn.Name()))
	}
	return nil, fmt.Errorf("guard is not a comparison of a decoded field against a constant")
}

// atomOf lifts `row[C].X OP const` (either operand order) into an atom.
func (an *analyzer) atomOf(pkg *lint.Package, be *ast.BinaryExpr, rowVar *types.Var) (atom, error) {
	switch be.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return atom{}, fmt.Errorf("guard operator %s is not a comparison", be.Op)
	}
	col, field, ok := fieldAccess(pkg, be.X, rowVar)
	constSide := be.Y
	op := be.Op
	if !ok {
		col, field, ok = fieldAccess(pkg, be.Y, rowVar)
		constSide = be.X
		op = flipOp(op)
		if !ok {
			return atom{}, fmt.Errorf("neither side of the guard reads a decoded field")
		}
	}
	tv := pkg.Info.Types[constSide]
	if tv.Value == nil {
		return atom{}, fmt.Errorf("the guard compares against a non-constant")
	}
	a := atom{col: col, field: field, op: op}
	switch field {
	case "I":
		i, exact := constant.Int64Val(constant.ToInt(tv.Value))
		if !exact {
			return atom{}, fmt.Errorf("guard constant does not fit an int64")
		}
		a.i = i
	case "F":
		f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		a.f = f
	case "S":
		if tv.Value.Kind() != constant.String {
			return atom{}, fmt.Errorf("guard compares a string field against a non-string constant")
		}
		a.s = constant.StringVal(tv.Value)
	}
	return a, nil
}

// fieldAccess matches `row[C].I|F|S` against the tracked row var.
func fieldAccess(pkg *lint.Package, e ast.Expr, rowVar *types.Var) (col int, field string, ok bool) {
	sel, okS := ast.Unparen(e).(*ast.SelectorExpr)
	if !okS {
		return 0, "", false
	}
	switch sel.Sel.Name {
	case "I", "F", "S":
		field = sel.Sel.Name
	default:
		return 0, "", false
	}
	ix, okS := ast.Unparen(sel.X).(*ast.IndexExpr)
	if !okS {
		return 0, "", false
	}
	id, okS := ast.Unparen(ix.X).(*ast.Ident)
	if !okS || pkg.Info.Uses[id] != rowVar {
		return 0, "", false
	}
	tv := pkg.Info.Types[ix.Index]
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, "", false
	}
	c, _ := constant.Int64Val(tv.Value)
	return int(c), field, true
}

// negateOp returns the comparison holding exactly when op fails.
func negateOp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

// flipOp mirrors a comparison across its operands (const OP field →
// field flip(OP) const).
func flipOp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// ---------------------------------------------------------------------------
// AST walking with parent context
// ---------------------------------------------------------------------------

// inspectParents walks the tree depth-first, passing each node's
// ancestor chain (nearest first is parents[len-1]; use parent()).
func inspectParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// parent returns the n-th nearest ancestor (0 = immediate parent).
func parent(parents []ast.Node, n int) ast.Node {
	if len(parents) <= n {
		return nil
	}
	return parents[len(parents)-1-n]
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

// atom is one comparison of a decoded field against a constant, in the
// exact Go semantics of the source it was lifted from: the accessor of a
// NULL value reads its zero value, just as the user's code would.
type atom struct {
	col   int
	field string // the accessor the source reads: "I", "F", or "S"
	op    token.Token
	i     int64
	f     float64
	s     string
}

// eval applies the atom to a decoded row.
func (a atom) eval(r exec.Row) bool {
	if a.col < 0 || a.col >= len(r) {
		return true // width mismatch: keep, the user code decides
	}
	switch a.field {
	case "I":
		return cmpOrd(r[a.col].I, a.i, a.op)
	case "F":
		return cmpOrd(r[a.col].F, a.f, a.op)
	case "S":
		return cmpOrd(r[a.col].S, a.s, a.op)
	}
	return true
}

// cmpOrd applies a comparison token to any ordered pair.
func cmpOrd[T int64 | float64 | string](x, y T, op token.Token) bool {
	switch op {
	case token.LSS:
		return x < y
	case token.LEQ:
		return x <= y
	case token.GTR:
		return x > y
	case token.GEQ:
		return x >= y
	case token.EQL:
		return x == y
	case token.NEQ:
		return x != y
	}
	return true
}

// render prints the atom with schema column names.
func (a atom) render(schema *exec.Schema) string {
	name := fmt.Sprintf("col%d", a.col)
	if schema != nil && a.col >= 0 && a.col < schema.Len() {
		name = schema.Cols[a.col].Name
	}
	var val string
	switch a.field {
	case "I":
		val = fmt.Sprintf("%d", a.i)
	case "F":
		val = fmt.Sprintf("%g", a.f)
	case "S":
		val = fmt.Sprintf("%q", a.s)
	}
	return fmt.Sprintf("%s %s %s", name, a.op, val)
}

// pred is a conjunction of atoms plus the helper path that discharged it.
type pred struct {
	atoms []atom
	path  []string
}

// and conjoins two predicates (either may be nil).
func (p *pred) and(o *pred) *pred {
	if p == nil {
		return o
	}
	if o == nil {
		return p
	}
	return &pred{atoms: append(append([]atom{}, p.atoms...), o.atoms...), path: append(append([]string{}, p.path...), o.path...)}
}

// eval reports whether the row satisfies every atom.
func (p *pred) eval(r exec.Row) bool {
	for _, a := range p.atoms {
		if !a.eval(r) {
			return false
		}
	}
	return true
}

// render prints the conjunction with schema column names.
func (p *pred) render(schema *exec.Schema) string {
	parts := make([]string, len(p.atoms))
	for i, a := range p.atoms {
		parts[i] = a.render(schema)
	}
	return strings.Join(parts, " AND ")
}

// Compile-time guard: rewrites hold runtime hooks for these job types.
var _ mapreduce.Mapper = mapreduce.MapperFunc(nil)
