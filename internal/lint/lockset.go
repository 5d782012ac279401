package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The lock-tracking layer behind the effect facts (facts.go) and
// sharecheck, which ask "is any lock held at this program point?"
// (heldLocks.any). Lock objects are identified structurally so that a
// release drops the hold it pairs with:
//
//   - a package-level mutex variable -> "pkg.var";
//   - a mutex field of a named struct, keyed by the type (not the
//     instance) -> "pkg.Type.field";
//   - anything else (a local mutex, a parameter with no resolvable
//     argument) has no identity and is matched by mode alone.
//
// One extra hop is resolved lexically: a helper whose body net-locks a
// *sync.Mutex / *sync.RWMutex parameter (a lock wrapper) makes its call
// sites acquisition sites of the argument's lock, so `lockBoth(&a.mu)`
// is tracked like `a.mu.Lock()`.
//
// The traversal is a lexical approximation: Lock/Unlock calls are
// interpreted in statement order, a deferred Unlock holds to function
// end, branch-local changes do not survive the join (must-hold
// lexically), and a go-spawned body starts with nothing held.

// lockKey identifies one lock object and acquisition mode. Read
// acquisitions (RLock) are tracked distinctly from write acquisitions:
// Unlock releases only a write hold and RUnlock only a read hold, so a
// mispaired RLock/Unlock does not silently release anything.
type lockKey struct {
	// ID is the structural identity ("pkg.Type.field", "pkg.var"), or
	// "" for a lock with no cross-function identity.
	ID string
	// Read marks an RLock acquisition.
	Read bool
}

// heldLock is one entry of the lexical hold multiset: the lock plus the
// position where it was acquired.
type heldLock struct {
	Key lockKey
	Pos token.Pos
}

// heldLocks is the ordered multiset of locks held at a program point.
type heldLocks struct {
	locks []heldLock
}

// push records an acquisition.
func (h *heldLocks) push(k lockKey, pos token.Pos) {
	h.locks = append(h.locks, heldLock{Key: k, Pos: pos})
}

// drop releases the most recent hold matching k (same ID, same mode).
// An unidentified release (ID "") falls back to the most recent
// unidentified hold of the same mode — the count-based approximation.
func (h *heldLocks) drop(k lockKey) {
	for i := len(h.locks) - 1; i >= 0; i-- {
		if h.locks[i].Key == k {
			h.locks = append(h.locks[:i], h.locks[i+1:]...)
			return
		}
	}
}

// snapshot copies the current hold set.
func (h *heldLocks) snapshot() []heldLock {
	return append([]heldLock(nil), h.locks...)
}

// clone duplicates the set for branch-local traversal.
func (h *heldLocks) clone() *heldLocks {
	return &heldLocks{locks: h.snapshot()}
}

// any reports whether anything is held.
func (h *heldLocks) any() bool { return len(h.locks) > 0 }

// lockIDOf resolves the structural identity of a mutex-valued
// expression ("" when it has none).
func lockIDOf(pkg *Package, e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[v].(*types.Var); ok && isPkgLevel(obj) && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return lockIDOf(pkg, v.X)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Sel.Name
			}
			return ""
		}
		// Package-qualified variable (pkg.mu).
		if obj, ok := pkg.Info.Uses[v.Sel].(*types.Var); ok && isPkgLevel(obj) && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return ""
}

// lockEventOf recognizes a Lock/RLock/Unlock/RUnlock call on a sync
// mutex and returns the lock key plus +1 (acquire) or -1 (release).
func lockEventOf(pkg *Package, e ast.Expr) (lockKey, int, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, 0, false
	}
	recv := pkg.Info.Types[sel.X].Type
	if recv == nil || !isSyncMutex(recv) {
		return lockKey{}, 0, false
	}
	k := lockKey{ID: lockIDOf(pkg, sel.X)}
	switch sel.Sel.Name {
	case "Lock":
		return k, +1, true
	case "RLock":
		k.Read = true
		return k, +1, true
	case "Unlock":
		return k, -1, true
	case "RUnlock":
		k.Read = true
		return k, -1, true
	}
	return lockKey{}, 0, false
}

// visitHeld walks stmts in source order with the identified hold set,
// invoking visit on every node: deferred releases are ignored (the lock
// holds to function end), branch-local changes die at the join, a nested
// function literal inherits the lexical hold state, and a go-spawned
// literal body is traversed with nothing held.
func visitHeld(pkg *Package, wraps map[*types.Func]map[int]int, stmts []ast.Stmt, held *heldLocks, visit func(n ast.Node, held *heldLocks)) {
	for _, s := range stmts {
		visitHeldStmt(pkg, wraps, s, held, visit)
	}
}

// visitHeldStmt handles one statement.
func visitHeldStmt(pkg *Package, wraps map[*types.Func]map[int]int, s ast.Stmt, held *heldLocks, visit func(n ast.Node, held *heldLocks)) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		visitHeldExpr(pkg, wraps, s.X, held, visit)
		applyLockEvents(pkg, wraps, s.X, held)
	case *ast.DeferStmt:
		// A deferred release keeps the lock held to function end; a
		// deferred acquire is nonsense and ignored.
		visitHeldExpr(pkg, wraps, s.Call, held, visit)
	case *ast.BlockStmt:
		visitHeld(pkg, wraps, s.List, held, visit)
	case *ast.IfStmt:
		if s.Init != nil {
			visitHeldStmt(pkg, wraps, s.Init, held, visit)
		}
		visitHeldExpr(pkg, wraps, s.Cond, held, visit)
		visitHeld(pkg, wraps, s.Body.List, held.clone(), visit)
		if s.Else != nil {
			visitHeldStmt(pkg, wraps, s.Else, held.clone(), visit)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			visitHeldStmt(pkg, wraps, s.Init, held, visit)
		}
		if s.Cond != nil {
			visitHeldExpr(pkg, wraps, s.Cond, held, visit)
		}
		visitHeld(pkg, wraps, s.Body.List, held.clone(), visit)
		if s.Post != nil {
			visitHeldStmt(pkg, wraps, s.Post, held.clone(), visit)
		}
	case *ast.RangeStmt:
		visitHeldExpr(pkg, wraps, s.X, held, visit)
		visit(s, held)
		visitHeld(pkg, wraps, s.Body.List, held.clone(), visit)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		visit(s, held)
		var clauses []ast.Stmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			clauses = s.Body.List
		case *ast.TypeSwitchStmt:
			clauses = s.Body.List
		case *ast.SelectStmt:
			clauses = s.Body.List
		}
		for _, c := range clauses {
			switch c := c.(type) {
			case *ast.CaseClause:
				for _, e := range c.List {
					visitHeldExpr(pkg, wraps, e, held, visit)
				}
				visitHeld(pkg, wraps, c.Body, held.clone(), visit)
			case *ast.CommClause:
				cl := held.clone()
				if c.Comm != nil {
					visitHeldStmt(pkg, wraps, c.Comm, cl, visit)
				}
				visitHeld(pkg, wraps, c.Body, cl, visit)
			}
		}
	case *ast.LabeledStmt:
		visitHeldStmt(pkg, wraps, s.Stmt, held, visit)
	case *ast.GoStmt:
		// The spawned body runs with none of the spawner's locks; a
		// named spawn's call expression is likewise visited unlocked so
		// hold state never propagates into the goroutine.
		visit(s, held)
		fresh := &heldLocks{}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, arg := range s.Call.Args {
				visitHeldExpr(pkg, wraps, arg, held, visit)
			}
			visit(s.Call, fresh)
			visitHeld(pkg, wraps, lit.Body.List, fresh, visit)
		} else {
			visitHeldExpr(pkg, wraps, s.Call, fresh, visit)
		}
	default:
		if s == nil {
			return
		}
		visit(s, held)
		ast.Inspect(s, func(n ast.Node) bool {
			if n == nil || n == s {
				return true
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				visitHeld(pkg, wraps, lit.Body.List, held.clone(), visit)
				return false
			}
			visit(n, held)
			return true
		})
	}
}

// visitHeldExpr visits one expression tree at a fixed hold state,
// recursing into function literals.
func visitHeldExpr(pkg *Package, wraps map[*types.Func]map[int]int, e ast.Expr, held *heldLocks, visit func(n ast.Node, held *heldLocks)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			visitHeld(pkg, wraps, lit.Body.List, held.clone(), visit)
			return false
		}
		visit(n, held)
		return true
	})
}

// applyLockEvents updates the hold set for an expression statement: a
// direct Lock/Unlock call, or a call to a one-hop lock wrapper whose
// argument resolves to an identified lock.
func applyLockEvents(pkg *Package, wraps map[*types.Func]map[int]int, e ast.Expr, held *heldLocks) {
	if k, delta, ok := lockEventOf(pkg, e); ok {
		if delta > 0 {
			held.push(k, e.Pos())
		} else {
			held.drop(k)
		}
		return
	}
	for _, eff := range wrapperEffects(pkg, wraps, e) {
		if eff.delta > 0 {
			held.push(eff.key, e.Pos())
		} else {
			held.drop(eff.key)
		}
	}
}

// wrapperEffect is one lock acquisition or release a wrapper call
// performs on behalf of its caller.
type wrapperEffect struct {
	key   lockKey
	delta int
}

// wrapperEffects resolves a call to a lock wrapper into the effects on
// the caller's hold set. Only arguments with an identified lock resolve;
// a wrapper handed a local mutex contributes nothing.
func wrapperEffects(pkg *Package, wraps map[*types.Func]map[int]int, e ast.Expr) []wrapperEffect {
	if wraps == nil {
		return nil
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	var callee *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = pkg.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pkg.Info.Uses[f.Sel].(*types.Func)
	}
	params := wraps[callee]
	if len(params) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(params))
	for i := range params {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var out []wrapperEffect
	for _, i := range idxs {
		enc := params[i]
		if i >= len(call.Args) {
			continue
		}
		id := lockIDOf(pkg, call.Args[i])
		if id == "" {
			continue
		}
		delta, read := decodeWrap(enc)
		out = append(out, wrapperEffect{key: lockKey{ID: id, Read: read}, delta: delta})
	}
	return out
}

// encodeWrap / decodeWrap pack a wrapper's net lock effect (±1, mode)
// into one int for the summary map.
func encodeWrap(delta int, read bool) int {
	if read {
		return delta * 2
	}
	return delta
}

func decodeWrap(enc int) (delta int, read bool) {
	if enc == 2 || enc == -2 {
		return enc / 2, true
	}
	return enc, false
}

// lockWrappers computes, for every function in the program, the net
// lock effect its body applies to each mutex-pointer parameter: +1 for
// a wrapper that locks it, -1 for one that unlocks it (read mode
// tracked separately). This is the one-hop resolution for locks passed
// by pointer through a helper; wrappers of wrappers are not chased.
func (g *CallGraph) lockWrappers() map[*types.Func]map[int]int {
	if g.prog.lockWraps != nil {
		return g.prog.lockWraps
	}
	wraps := make(map[*types.Func]map[int]int)
	for fn, d := range g.Decls {
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Params().Len() == 0 {
			continue
		}
		net := make(map[int]int) // param index -> net delta (read-encoded)
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			k, delta, ok := lockEventOf(d.Pkg, call)
			if !ok {
				return true
			}
			sel := call.Fun.(*ast.SelectorExpr)
			root := rootIdent(sel.X)
			if root == nil {
				return true
			}
			obj, _ := d.Pkg.Info.Uses[root].(*types.Var)
			if obj == nil || !isPointer(obj.Type()) {
				return true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i) == obj {
					net[i] += encodeWrap(delta, k.Read)
				}
			}
			return true
		})
		params := make(map[int]int)
		for i, enc := range net {
			if enc != 0 {
				params[i] = enc
			}
		}
		if len(params) > 0 {
			wraps[fn] = params
		}
	}
	g.prog.lockWraps = wraps
	return wraps
}
