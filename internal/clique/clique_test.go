package clique

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"regimap/internal/graph"
)

// completeGraph returns K_n with no weights.
func completeGraph(n, cap int) *Graph {
	g := NewGraph(n, cap)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestFindCompleteGraph(t *testing.T) {
	g := completeGraph(6, -1)
	c := Find(g, 6, Options{})
	if len(c) != 6 {
		t.Fatalf("clique size = %d, want 6", len(c))
	}
	if !g.IsFeasibleClique(c) {
		t.Error("returned non-clique")
	}
}

func TestFindTriangleInPath(t *testing.T) {
	// Path 0-1-2-3 plus edge 0-2: max clique {0,1,2}.
	g := NewGraph(4, -1)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 2)
	c := Find(g, 4, Options{})
	if len(c) != 3 {
		t.Fatalf("clique size = %d, want 3 (%v)", len(c), c)
	}
	sort.Ints(c)
	if c[0] != 0 || c[1] != 1 || c[2] != 2 {
		t.Errorf("clique = %v, want [0 1 2]", c)
	}
}

func TestWeightBudgetRejects(t *testing.T) {
	// Triangle, but node 0 needs 2 registers toward each neighbour and the
	// budget is 3: the full triangle (sum 4) is infeasible, pairs are fine.
	g := completeGraph(3, 3)
	g.AddWeight(0, 1, 2)
	g.AddWeight(0, 2, 2)
	c := Find(g, 3, Options{})
	if len(c) != 2 {
		t.Fatalf("clique size = %d, want 2 (budget must bind)", len(c))
	}
	if !g.IsFeasibleClique(c) {
		t.Error("infeasible clique returned")
	}
	// Raising the budget admits the triangle.
	g2 := completeGraph(3, 4)
	g2.AddWeight(0, 1, 2)
	g2.AddWeight(0, 2, 2)
	if c := Find(g2, 3, Options{}); len(c) != 3 {
		t.Errorf("clique size = %d, want 3 with budget 4", len(c))
	}
}

func TestWeightAsymmetry(t *testing.T) {
	g := completeGraph(2, 1)
	g.AddWeight(0, 1, 5) // 0 -> 1 heavy, 1 -> 0 free
	if c := Find(g, 2, Options{}); len(c) != 1 {
		t.Errorf("clique size = %d, want 1 (directed weight must bind)", len(c))
	}
	if g.Weight(0, 1) != 5 || g.Weight(1, 0) != 0 {
		t.Error("weights must be directed")
	}
}

func TestIncomingWeightGuard(t *testing.T) {
	// Node 0 already carries weight 3 toward node 1 within budget 3; adding
	// node 2 with weight(0,2)=1 must be rejected because it pushes node 0
	// over budget even though node 2 itself is free.
	g := completeGraph(3, 3)
	g.AddWeight(0, 1, 3)
	g.AddWeight(0, 2, 1)
	c := Find(g, 3, Options{})
	if len(c) != 2 {
		t.Fatalf("clique size = %d, want 2", len(c))
	}
}

func TestIsFeasibleClique(t *testing.T) {
	g := NewGraph(3, 1)
	g.AddEdge(0, 1)
	if g.IsFeasibleClique([]int{0, 2}) {
		t.Error("accepted a non-edge")
	}
	if !g.IsFeasibleClique([]int{0, 1}) {
		t.Error("rejected a valid clique")
	}
	g.AddWeight(0, 1, 2)
	if g.IsFeasibleClique([]int{0, 1}) {
		t.Error("accepted an over-budget clique")
	}
}

func TestSelfEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(2, -1).AddEdge(1, 1)
}

func TestExactMatchesKnown(t *testing.T) {
	// Two triangles sharing node 2: {0,1,2} and {2,3,4}; plus pendant 5.
	g := NewGraph(6, -1)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	c := refFindExact(g, 6)
	if len(c) != 3 {
		t.Fatalf("exact clique size = %d, want 3", len(c))
	}
}

func TestFindStopsEarlyAtTarget(t *testing.T) {
	g := completeGraph(30, -1)
	c := Find(g, 5, Options{})
	if len(c) < 5 {
		t.Fatalf("clique size = %d, want >= 5", len(c))
	}
}

func TestSwapRecoversFromGreedyTrap(t *testing.T) {
	// Construct a graph where the greedy tie-break can strand the search:
	// a hub node adjacent to everything but contained in no big clique.
	// Nodes 1..4 form K4; node 0 adjacent to 1,2 and to extra pendants
	// 5..9 (high degree, but max clique through 0 is a triangle).
	g := NewGraph(10, -1)
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
	c := Find(g, 4, Options{})
	if len(c) != 4 {
		t.Fatalf("clique size = %d, want 4 (%v)", len(c), c)
	}
}

func randomGraph(rng *rand.Rand) *Graph {
	n := 4 + rng.Intn(14)
	cap := rng.Intn(5) - 1 // -1..3
	g := NewGraph(n, cap)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) > 0 {
				g.AddEdge(u, v)
				if cap >= 0 && rng.Intn(3) == 0 {
					g.AddWeight(u, v, rng.Intn(3))
					g.AddWeight(v, u, rng.Intn(3))
				}
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
		h := Find(g, g.N(), Options{})
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

// Property: the heuristic finds the optimum on small unweighted graphs most
// of the time; require it never to be worse than optimum-1 here (it has swap
// and intersection repair).
func TestHeuristicQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	worse := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		g := randomGraph(rng)
		h := Find(g, g.N(), Options{})
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
		full := Find(g, g.N(), Options{})
		noSwap := Find(g, g.N(), Options{DisableSwap: true})
		noInter := Find(g, g.N(), Options{DisableIntersect: true})
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
		a := Find(g, g.N(), Options{})
		b := Find(g, g.N(), Options{})
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
	// Node 0 carries an unconditional base of 2 with budget 2: it can join a
	// clique alone but any weighted outgoing arc pushes it over.
	g := completeGraph(3, 2)
	g.AddBase(0, 2)
	g.AddWeight(0, 1, 1)
	c := Find(g, 3, Options{})
	if !g.IsFeasibleClique(c) {
		t.Fatal("infeasible clique returned")
	}
	for _, v := range c {
		if v == 0 {
			for _, w := range c {
				if w == 1 {
					t.Fatal("clique contains 0 and 1 despite base+weight > cap")
				}
			}
		}
	}
	if g.Base(0) != 2 {
		t.Error("Base accessor wrong")
	}
	// Base alone exceeding the cap excludes the node entirely.
	g2 := completeGraph(2, 1)
	g2.AddBase(0, 5)
	c2 := Find(g2, 2, Options{})
	if len(c2) != 1 || c2[0] != 1 {
		t.Errorf("clique = %v, want [1]", c2)
	}
}

// The cached degree vector and degree order must follow every adjacency
// mutator: after each one, Degrees, Degree and DegreeOrder agree with a
// fresh count over Adjacent. 70 nodes put rows across two bitset words.
func TestDegreeCacheTracksMutations(t *testing.T) {
	const n = 70
	rng := rand.New(rand.NewSource(5))
	g := NewGraph(n, -1)
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
	check("NewGraph")
	for i := 0; i < 400; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v)
		}
	}
	check("AddEdge")
	for u := 0; u < n; u++ {
		if g.Adjacent(u, (u+1)%n) {
			g.ClearEdge(u, (u+1)%n)
			break
		}
	}
	check("ClearEdge")
	m := mask()
	m.Clear(3)
	g.OrAdjacency(3, m)
	check("OrAdjacency")
	g.AndNotAdjacency(3, mask())
	check("AndNotAdjacency")
	g.ResetAdjacency(4)
	check("ResetAdjacency")
}
