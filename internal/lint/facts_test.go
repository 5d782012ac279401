package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// loadFactsPkg type-checks one synthetic single-file module, the
// fixture harness for the lexical lock-tracking edge cases.
func loadFactsPkg(t *testing.T, src string) (*Program, *Package) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module factstest\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "facts.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, targets, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(targets) != 1 {
		t.Fatalf("want 1 target, got %d", len(targets))
	}
	return prog, targets[0].Pkg
}

// heldAtProbe walks fname with the identified-lock walker and returns
// the lock IDs held at its probe() call ("" entries for unidentified
// locks). The bool reports whether probe was reached.
func heldAtProbe(t *testing.T, prog *Program, pkg *Package, fname string) ([]string, bool) {
	t.Helper()
	g := prog.CallGraph()
	wraps := g.lockWrappers()
	var fd *ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == fname {
				fd = d
			}
		}
	}
	if fd == nil {
		t.Fatalf("no function %s in fixture", fname)
	}
	var ids []string
	found := false
	visitHeld(pkg, wraps, fd.Body.List, &heldLocks{}, func(n ast.Node, held *heldLocks) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "probe" {
			found = true
			ids = nil
			for _, h := range held.locks {
				ids = append(ids, h.Key.ID)
			}
		}
	})
	return ids, found
}

// TestConditionalDeferUnlock: a defer mu.Unlock() inside a conditional
// branch must not release the lock for the code after the join — the
// deferred release runs at function end, and branch-local lock-state
// changes never survive the join.
func TestConditionalDeferUnlock(t *testing.T) {
	prog, pkg := loadFactsPkg(t, `package factstest

import "sync"

var gmu sync.Mutex

func probe() {}

func condDefer(cond bool) {
	gmu.Lock()
	if cond {
		defer gmu.Unlock()
	}
	probe()
}
`)
	ids, found := heldAtProbe(t, prog, pkg, "condDefer")
	if !found {
		t.Fatal("probe() not visited")
	}
	if len(ids) != 1 || ids[0] != "factstest.gmu" {
		t.Fatalf("want factstest.gmu held at probe (deferred unlock must not release), got %v", ids)
	}
}

// TestRLockPairing: RUnlock must release only a read hold. A write
// Lock mispaired with RUnlock stays held; a proper RLock/RUnlock pair
// releases.
func TestRLockPairing(t *testing.T) {
	prog, pkg := loadFactsPkg(t, `package factstest

import "sync"

var rw sync.RWMutex

func probe() {}

func mispaired() {
	rw.Lock()
	rw.RUnlock()
	probe()
	rw.Unlock()
}

func paired() {
	rw.RLock()
	rw.RUnlock()
	probe()
}
`)
	ids, found := heldAtProbe(t, prog, pkg, "mispaired")
	if !found {
		t.Fatal("probe() not visited in mispaired")
	}
	if len(ids) != 1 || ids[0] != "factstest.rw" {
		t.Fatalf("RUnlock must not release a write Lock: want factstest.rw still held, got %v", ids)
	}
	ids, found = heldAtProbe(t, prog, pkg, "paired")
	if !found {
		t.Fatal("probe() not visited in paired")
	}
	if len(ids) != 0 {
		t.Fatalf("RLock/RUnlock pair must release: got %v", ids)
	}
}

// TestLockWrapperOneHop: a helper that locks a *sync.Mutex parameter
// makes its call sites acquisition sites of the argument's lock — one
// hop of pointer-passing is resolved for the hold set.
func TestLockWrapperOneHop(t *testing.T) {
	prog, pkg := loadFactsPkg(t, `package factstest

import "sync"

var wmu sync.Mutex

func probe() {}

func lockIt(m *sync.Mutex)   { m.Lock() }
func unlockIt(m *sync.Mutex) { m.Unlock() }

func viaWrapper() {
	lockIt(&wmu)
	probe()
	unlockIt(&wmu)
}
`)
	ids, found := heldAtProbe(t, prog, pkg, "viaWrapper")
	if !found {
		t.Fatal("probe() not visited")
	}
	if len(ids) != 1 || ids[0] != "factstest.wmu" {
		t.Fatalf("wrapper-held lock missing: want factstest.wmu at probe, got %v", ids)
	}

}
