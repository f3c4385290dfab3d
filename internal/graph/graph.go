// Package graph provides the small directed-graph toolkit the DFG layer
// uses for its distance-0 dependence structure: adjacency storage, a
// deterministic topological order and cycle detection. It also holds the
// word bitsets of the clique engine (bitset.go).
//
// Nodes are dense integer identifiers 0..N-1; higher layers keep their own
// rich node records and use this package for pure structure queries.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph over nodes 0..N-1 with parallel edges allowed.
type Digraph struct {
	n   int
	out [][]int
	in  [][]int
}

// New returns an empty digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Digraph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// AddEdge inserts a directed edge u -> v. Parallel edges are kept.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
}

// Out returns the successors of u. The slice is shared; callers must not
// modify it.
func (g *Digraph) Out(u int) []int {
	g.check(u)
	return g.out[u]
}

func (g *Digraph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// TopoSort returns a topological order of the nodes, or ok=false if the graph
// contains a directed cycle. The order is deterministic: among ready nodes the
// smallest identifier is emitted first (Kahn's algorithm with a sorted
// frontier).
func (g *Digraph) TopoSort() (order []int, ok bool) {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.in[v])
	}
	frontier := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	sort.Ints(frontier)
	order = make([]int, 0, g.n)
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		order = append(order, v)
		added := false
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
				added = true
			}
		}
		if added {
			sort.Ints(frontier)
		}
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Digraph) HasCycle() bool {
	_, ok := g.TopoSort()
	return !ok
}
