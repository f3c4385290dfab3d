package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative node count")
		}
	}()
	New(-1)
}

func TestAddEdgeAndDegrees(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	for u, want := range [][]int{{1, 2}, {2}, nil} {
		if got := g.Out(u); !slices.Equal(got, want) {
			t.Errorf("Out(%d) = %v, want %v", u, got, want)
		}
	}
}

func TestParallelEdgesKept(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if got := len(g.Out(0)); got != 2 {
		t.Errorf("out-degree = %d, want 2 (parallel edges must be kept)", got)
	}
}

func TestTopoSortChain(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 0)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("TopoSort reported a cycle on a chain")
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := New(5)
	g.AddEdge(4, 0)
	g.AddEdge(2, 0)
	first, _ := g.TopoSort()
	for i := 0; i < 10; i++ {
		again, _ := g.TopoSort()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("TopoSort not deterministic: %v vs %v", first, again)
			}
		}
	}
	// Among ready nodes, the smallest id must come first.
	if first[0] != 1 {
		t.Errorf("first ready node = %d, want 1 (smallest id)", first[0])
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, ok := g.TopoSort(); ok {
		t.Error("TopoSort accepted a cyclic graph")
	}
	if !g.HasCycle() {
		t.Error("HasCycle = false on a 3-cycle")
	}
}

// Property: a topological order, when it exists, places every edge forward.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		// Random DAG: edges only from lower to higher id.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		order, ok := g.TopoSort()
		if !ok {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Out(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
