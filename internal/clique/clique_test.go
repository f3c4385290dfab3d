package clique

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"regimap/internal/graph"
)

// completeGraph returns K_n on one cluster whose file holds regs registers,
// every node without demand.
func completeGraph(n, regs int) *Graph {
	g := NewGraph(n, 1)
	g.SetRegs(0, regs)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestFindCompleteGraph(t *testing.T) {
	g := completeGraph(6, 0)
	c := Find(g, 6, Options{}, nil)
	if len(c) != 6 {
		t.Fatalf("clique size = %d, want 6", len(c))
	}
	if !g.IsFeasibleClique(c) {
		t.Error("returned non-clique")
	}
}

func TestFindTriangleInPath(t *testing.T) {
	// Path 0-1-2-3 plus edge 0-2: max clique {0,1,2}.
	g := NewGraph(4, 1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 2)
	c := Find(g, 4, Options{}, nil)
	if len(c) != 3 {
		t.Fatalf("clique size = %d, want 3 (%v)", len(c), c)
	}
	sort.Ints(c)
	if c[0] != 0 || c[1] != 1 || c[2] != 2 {
		t.Errorf("clique = %v, want [0 1 2]", c)
	}
}

func TestWeightBudgetRejects(t *testing.T) {
	// Triangle on one file of 3 registers: node 0 needs 2 and the others 1
	// each, so the full triangle (load 4) is infeasible and every pair fits.
	g := completeGraph(3, 3)
	g.SetDemand(0, 2)
	g.SetDemand(1, 1)
	g.SetDemand(2, 1)
	c := Find(g, 3, Options{}, nil)
	if len(c) != 2 {
		t.Fatalf("clique size = %d, want 2 (the file must bind)", len(c))
	}
	if !g.IsFeasibleClique(c) {
		t.Error("infeasible clique returned")
	}
	// A larger file admits the triangle.
	g.SetRegs(0, 4)
	if c := Find(g, 3, Options{}, nil); len(c) != 3 {
		t.Errorf("clique size = %d, want 3 with a 4-register file", len(c))
	}
}

func TestIncomingWeightGuard(t *testing.T) {
	// Nodes 0 and 1 fill their cluster's 3-register file (demands 2 and 1).
	// Node 2, which alone fits, needs one more register there and must be
	// kept out; node 3 holds none and joins freely. Node 4 needs 3 registers
	// of another cluster's file and fits beside all of them.
	g := NewGraph(5, 2)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
		}
	}
	g.SetRegs(0, 3)
	g.SetRegs(1, 3)
	for u, d := range []int{2, 1, 1, 0, 3} {
		g.SetDemand(u, d)
	}
	g.SetCluster(4, 1)
	c := Find(g, 5, Options{}, nil)
	if len(c) != 4 || !g.IsFeasibleClique(c) {
		t.Fatalf("clique = %v, want 4 feasible members", c)
	}
	if slices.Contains(c, 0) && slices.Contains(c, 1) && slices.Contains(c, 2) {
		t.Fatalf("clique %v overfills cluster 0's file", c)
	}
}

func TestIsFeasibleClique(t *testing.T) {
	g := NewGraph(3, 2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	if !g.IsFeasibleClique([]int{0, 1}) {
		t.Error("rejected a valid clique")
	}
	g.ClearEdge(0, 2)
	if g.IsFeasibleClique([]int{0, 2}) {
		t.Error("accepted a non-edge")
	}
	g.SetRegs(0, 1)
	g.SetDemand(0, 2)
	if g.IsFeasibleClique([]int{0, 1}) {
		t.Error("accepted an over-budget clique")
	}
	// Each cluster's load is checked against its own file only.
	g.SetRegs(0, 2)
	g.SetRegs(1, 2)
	g.SetCluster(1, 1)
	g.SetDemand(1, 2)
	if !g.IsFeasibleClique([]int{0, 1}) {
		t.Error("rejected a clique whose clusters each fit their file")
	}
	g.SetCluster(1, 0)
	if g.IsFeasibleClique([]int{0, 1}) {
		t.Error("accepted two demands of 2 on one 2-register file")
	}
}

func TestSelfEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(2, 1).AddEdge(1, 1)
}

func TestExactMatchesKnown(t *testing.T) {
	// Two triangles sharing node 2: {0,1,2} and {2,3,4}; plus pendant 5.
	g := NewGraph(6, 1)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	c := refFindExact(g, 6)
	if len(c) != 3 {
		t.Fatalf("exact clique size = %d, want 3", len(c))
	}
}

func TestFindStopsEarlyAtTarget(t *testing.T) {
	g := completeGraph(30, 0)
	c := Find(g, 5, Options{}, nil)
	if len(c) < 5 {
		t.Fatalf("clique size = %d, want >= 5", len(c))
	}
}

func TestSwapRecoversFromGreedyTrap(t *testing.T) {
	// Construct a graph where the greedy tie-break can strand the search:
	// a hub node adjacent to everything but contained in no big clique.
	// Nodes 1..4 form K4; node 0 adjacent to 1,2 and to extra pendants
	// 5..9 (high degree, but max clique through 0 is a triangle).
	g := NewGraph(10, 1)
	for u := 1; u <= 4; u++ {
		for v := u + 1; v <= 4; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	for p := 5; p <= 9; p++ {
		g.AddEdge(0, p)
	}
	c := Find(g, 4, Options{}, nil)
	if len(c) != 4 {
		t.Fatalf("clique size = %d, want 4 (%v)", len(c), c)
	}
}

// randomGraph returns a small graph over one to three clusters with files
// of 0..3 registers and demands of 0..2.
func randomGraph(rng *rand.Rand) *Graph {
	n := 4 + rng.Intn(14)
	g := NewGraph(n, 1+rng.Intn(3))
	for c := 0; c < g.Clusters(); c++ {
		g.SetRegs(c, rng.Intn(4))
	}
	for u := 0; u < n; u++ {
		g.SetCluster(u, rng.Intn(g.Clusters()))
		if rng.Intn(3) == 0 {
			g.SetDemand(u, rng.Intn(3))
		}
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) > 0 {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Property: the heuristic always returns a feasible clique, and never a
// larger one than the exact search.
func TestHeuristicSoundAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		h := Find(g, g.N(), Options{}, nil)
		if !g.IsFeasibleClique(h) {
			return false
		}
		exact := refFindExact(g, g.N())
		if !g.IsFeasibleClique(exact) {
			return false
		}
		return len(h) <= len(exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the heuristic finds the optimum on small graphs most of the
// time; require it never to be worse than optimum-1 here (it has swap and
// intersection repair).
func TestHeuristicQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	worse := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		g := randomGraph(rng)
		h := Find(g, g.N(), Options{}, nil)
		exact := refFindExact(g, g.N())
		if len(h) < len(exact)-1 {
			worse++
		}
	}
	if worse > trials/10 {
		t.Errorf("heuristic was >1 below optimum in %d/%d trials", worse, trials)
	}
}

func TestAblationKnobs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng)
		full := Find(g, g.N(), Options{}, nil)
		noSwap := Find(g, g.N(), Options{DisableSwap: true}, nil)
		noInter := Find(g, g.N(), Options{DisableIntersect: true}, nil)
		for _, c := range [][]int{full, noSwap, noInter} {
			if !g.IsFeasibleClique(c) {
				t.Fatal("ablated search returned infeasible clique")
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng)
		a := Find(g, g.N(), Options{}, nil)
		b := Find(g, g.N(), Options{}, nil)
		if len(a) != len(b) {
			t.Fatal("Find not deterministic")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("Find not deterministic")
			}
		}
	}
}

func TestBaseWeight(t *testing.T) {
	// Node 0 holds both registers of its 2-register file: it can join a
	// clique alone, but never beside node 1, which needs one more there.
	// Node 2 sits on another cluster and joins either.
	g := NewGraph(3, 2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.SetRegs(0, 2)
	g.SetRegs(1, 2)
	g.SetDemand(0, 2)
	g.SetDemand(1, 1)
	g.SetCluster(2, 1)
	g.SetDemand(2, 2)
	c := Find(g, 3, Options{}, nil)
	if len(c) != 2 || !g.IsFeasibleClique(c) {
		t.Fatalf("clique = %v, want 2 feasible members", c)
	}
	if slices.Contains(c, 0) && slices.Contains(c, 1) {
		t.Fatal("clique contains 0 and 1 despite their summed demand above the file")
	}
	if g.Demand(0) != 2 || g.Cluster(2) != 1 || g.Regs(1) != 2 {
		t.Error("Demand, Cluster or Regs accessor wrong")
	}
	// A demand above its own file excludes the node entirely.
	g2 := completeGraph(2, 1)
	g2.SetDemand(0, 5)
	c2 := Find(g2, 2, Options{}, nil)
	if len(c2) != 1 || c2[0] != 1 {
		t.Errorf("clique = %v, want [1]", c2)
	}
}

// The cached degree vector and degree order must follow every adjacency
// mutator: after each one, Degrees, Degree and DegreeOrder agree with a
// fresh count over Adjacent. 70 nodes put rows across two bitset words. The
// mutators run on a dense graph and then on a copy laid out from a group
// index whose free pairs are complete bipartite, where a degree counts the
// nodes of the implicit words too.
func TestDegreeCacheTracksMutations(t *testing.T) {
	const n = 70
	rng := rand.New(rand.NewSource(5))
	g := NewGraph(n, 1)
	check := func(step string) {
		t.Helper()
		deg := g.Degrees()
		for u := 0; u < n; u++ {
			want := 0
			for v := 0; v < n; v++ {
				if g.Adjacent(u, v) {
					want++
				}
			}
			if deg[u] != want || g.Degree(u) != want {
				t.Fatalf("after %s: node %d degree %d (Degree %d), want %d", step, u, deg[u], g.Degree(u), want)
			}
		}
		order := g.DegreeOrder()
		for i := 1; i < n; i++ {
			a, b := order[i-1], order[i]
			if deg[a] < deg[b] || (deg[a] == deg[b] && a > b) {
				t.Fatalf("after %s: DegreeOrder out of order at %d: %v", step, i, order)
			}
		}
	}
	mask := func() *graph.Bitset {
		m := graph.NewBitset(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				m.Set(v)
			}
		}
		return m
	}
	mutate := func(layout string) {
		for i := 0; i < 400; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(u, v)
			}
		}
		check(layout + " AddEdge")
		for u := 0; u < n; u++ {
			if v := (u + 1) % n; g.Adjacent(u, v) && (g.from == nil || g.from.Constrained(int(g.lay[u]), int(g.lay[v]))) {
				g.ClearEdge(u, v)
				break
			}
		}
		check(layout + " ClearEdge")
		m := mask()
		m.Clear(3)
		var at []int
		for w := 1; w < len(m.Words()); w++ {
			at = append(at, w)
		}
		g.OrAdjacencyAt(3, at, m.Words()[1:])
		check(layout + " OrAdjacencyAt")
	}
	check("NewGraph")
	mutate("dense")

	// Groups of ten consecutive nodes; a group pair becomes free once every
	// edge between the two is added.
	groups := make([][]int, n/10)
	for u := 0; u < n; u++ {
		groups[u/10] = append(groups[u/10], u)
	}
	for _, pair := range [][2]int{{0, 6}, {1, 2}, {2, 6}, {3, 5}} {
		for _, u := range groups[pair[0]] {
			for _, v := range groups[pair[1]] {
				g.AddEdge(u, v)
			}
		}
	}
	gx := NewGroups(n, groups)
	relate(rng, g, gx, groups, 0)
	dense := g
	g = &Graph{}
	copyGraph(g, dense, gx)
	implicit := false
	for u := 0; u < n; u++ {
		implicit = implicit || g.free[g.lay[u]] > 0
	}
	if !implicit {
		t.Fatal("the laid-out graph has no implicit word")
	}
	check("Layout")
	mutate("laid-out")
}
