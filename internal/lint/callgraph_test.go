package lint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"go/types"
)

// loadCallgraphFixture loads the callgraph testdata package and builds
// its graph.
func loadCallgraphFixture(t *testing.T) (*Program, *Package, *CallGraph) {
	t.Helper()
	dir := filepath.Join("testdata", "src", "callgraph")
	prog, targets, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	return prog, targets[0].Pkg, prog.CallGraph()
}

// fixtureFunc resolves a package function or Type.Method name.
func fixtureFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	scope := pkg.Types.Scope()
	if typeName, method, ok := strings.Cut(name, "."); ok {
		tn, _ := scope.Lookup(typeName).(*types.TypeName)
		if tn == nil {
			t.Fatalf("no type %s in fixture", typeName)
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == method {
				return named.Method(i)
			}
		}
		t.Fatalf("no method %s on %s", method, typeName)
	}
	fn, _ := scope.Lookup(name).(*types.Func)
	if fn == nil {
		t.Fatalf("no function %s in fixture", name)
	}
	return fn
}

// edgeSet renders a node's outgoing edges as sorted "kind callee"
// strings.
func edgeSet(g *CallGraph, fn *types.Func) []string {
	node := g.Nodes[fn]
	if node == nil {
		return nil
	}
	var out []string
	for _, e := range node.Out {
		out = append(out, fmt.Sprintf("%s %s", e.Kind, shortFuncName(e.Callee)))
	}
	sort.Strings(out)
	return out
}

// TestCallGraphEdges asserts the exact edge set for every interesting
// shape in the fixture: bounded interface dispatch, static calls,
// function references, method values, and mutual recursion.
func TestCallGraphEdges(t *testing.T) {
	_, pkg, g := loadCallgraphFixture(t)
	cases := []struct {
		fn   string
		want []string
	}{
		{"Chorus", []string{"dynamic callgraph.Cat.Speak", "dynamic callgraph.Dog.Speak"}},
		{"Spook", nil},
		{"Even", []string{"static callgraph.Odd"}},
		{"Odd", []string{"static callgraph.Even"}},
		{"PassRef", []string{"ref callgraph.Leaf", "static callgraph.Apply"}},
		{"Apply", nil}, // the call through f carries no edge; the bind site does
		{"MethodValue", []string{"ref callgraph.Dog.Speak"}},
		{"Leaf", nil},
	}
	for _, c := range cases {
		got := edgeSet(g, fixtureFunc(t, pkg, c.fn))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s edges = %v, want %v", c.fn, got, c.want)
		}
	}
}

// TestCallGraphUnresolved: a dispatch through an interface nothing in
// the module implements is recorded as unresolved, not dropped.
func TestCallGraphUnresolved(t *testing.T) {
	_, pkg, g := loadCallgraphFixture(t)
	spook := g.Nodes[fixtureFunc(t, pkg, "Spook")]
	if spook == nil || len(spook.Unresolved) != 1 {
		t.Fatalf("Spook should carry exactly one unresolved call, got %+v", spook)
	}
	if want := "no in-module implementation of Ghost.Boo"; spook.Unresolved[0].Desc != want {
		t.Errorf("unresolved desc = %q, want %q", spook.Unresolved[0].Desc, want)
	}
	chorus := g.Nodes[fixtureFunc(t, pkg, "Chorus")]
	if chorus == nil || len(chorus.Unresolved) != 0 {
		t.Errorf("Chorus dispatch is bounded; unresolved = %+v", chorus)
	}
}

// TestConservativeDefaultFires: the unresolved call must surface as a
// conservative assume-impure diagnostic when the determinism check,
// which leans on the graph, runs over the fixture.
func TestConservativeDefaultFires(t *testing.T) {
	dir := filepath.Join("testdata", "src", "callgraph")
	diags, err := Vet(dir, []string{"."})
	if err != nil {
		t.Fatalf("Vet(callgraph): %v", err)
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "unresolvable") && strings.Contains(d.Message, "Ghost.Boo") {
			found = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !found {
		t.Error("unresolved dispatch did not produce the conservative assume-nondeterministic diagnostic")
	}
}

// TestReachFactTerminates: searches over the mutually recursive pair
// must terminate and find nothing.
func TestReachFactTerminates(t *testing.T) {
	_, pkg, g := loadCallgraphFixture(t)
	even := fixtureFunc(t, pkg, "Even")
	if path, fact := g.reachFact(even, func(*types.Func) *Fact { return nil }, false); fact != nil {
		t.Errorf("no base facts, but reachFact found %v via %v", fact, path)
	}
}
