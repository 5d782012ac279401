package lint

import (
	"go/token"
	"go/types"
)

// The fact-propagation layer: an analyzer describes what a single
// function does (a base fact — determinism.go's nondeterminism sources:
// a wall-clock read, a global math/rand draw, a map-ordered emission),
// and the engine answers "is any such fact reachable from here?" over
// the call graph, returning a witness path for the diagnostic.

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
