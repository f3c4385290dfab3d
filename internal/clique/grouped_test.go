package clique

import (
	"math/rand"
	"testing"

	"regimap/internal/graph"
	"regimap/internal/obs"
)

type graphBitset = graph.Bitset

func newGraphBitset(n int) *graphBitset { return graph.NewBitset(n) }

// groupedFixture builds a graph of g groups x c candidates where candidate j
// of every group is compatible with candidate j' of every other group unless
// the blocked function rejects the pair.
func groupedFixture(g, c int, blocked func(gi, ci, gj, cj int) bool) (*Graph, [][]int) {
	graph := NewGraph(g*c, 1)
	groups := make([][]int, g)
	for gi := 0; gi < g; gi++ {
		for ci := 0; ci < c; ci++ {
			groups[gi] = append(groups[gi], gi*c+ci)
		}
	}
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			for ci := 0; ci < c; ci++ {
				for cj := 0; cj < c; cj++ {
					if blocked != nil && blocked(gi, ci, gj, cj) {
						continue
					}
					graph.AddEdge(groups[gi][ci], groups[gj][cj])
				}
			}
		}
	}
	return graph, groups
}

func TestFindGroupedComplete(t *testing.T) {
	g, groups := groupedFixture(6, 3, nil)
	sol := FindGrouped(g, NewGroups(g.N(), groups), Options{})
	if len(sol) != 6 {
		t.Fatalf("placed %d/6 groups", len(sol))
	}
	if !g.IsFeasibleClique(sol) {
		t.Fatal("solution is not a clique")
	}
	seen := map[int]bool{}
	for _, u := range sol {
		gi := u / 3
		if seen[gi] {
			t.Fatal("two candidates from one group")
		}
		seen[gi] = true
	}
}

// TestFindGroupedResourceExclusive models REGIMap's same-resource rule:
// candidate j of every group stands for PE j, and two groups cannot share a
// PE. With exactly as many PEs as groups, only a perfect matching works.
func TestFindGroupedResourceExclusive(t *testing.T) {
	g, groups := groupedFixture(4, 4, func(gi, ci, gj, cj int) bool {
		return ci == cj // same PE
	})
	sol := FindGrouped(g, NewGroups(g.N(), groups), Options{})
	if len(sol) != 4 {
		t.Fatalf("placed %d/4 groups (a perfect matching exists)", len(sol))
	}
	used := map[int]bool{}
	for _, u := range sol {
		pe := u % 4
		if used[pe] {
			t.Fatal("two groups on one PE")
		}
		used[pe] = true
	}
}

// TestFindGroupedSwapRepair forces the one-out swap: group 2's only
// candidate conflicts with group 0's preferred candidate.
func TestFindGroupedSwapRepair(t *testing.T) {
	// 3 groups; groups 0 and 1 have 2 candidates, group 2 has 1. Group 2's
	// candidate is incompatible with group 0's candidate 0 only.
	g := NewGraph(5, 1)
	groups := [][]int{{0, 1}, {2, 3}, {4}}
	addAll := func(a, b []int) {
		for _, u := range a {
			for _, v := range b {
				g.AddEdge(u, v)
			}
		}
	}
	addAll(groups[0], groups[1])
	addAll([]int{1}, groups[2]) // group2 compatible only with candidate 1 of group 0
	addAll(groups[1], groups[2])
	sol := FindGrouped(g, NewGroups(g.N(), groups), Options{GroupOrder: []int{0, 1, 2}})
	if len(sol) != 3 {
		t.Fatalf("placed %d/3 groups; swap repair should fix group 2 (%v)", len(sol), sol)
	}
}

func TestFindGroupedWeightBudget(t *testing.T) {
	// Two groups, one candidate each, on one 1-register file that both need
	// a register of: only one can be placed.
	g := NewGraph(2, 1)
	g.AddEdge(0, 1)
	g.SetRegs(0, 1)
	g.SetDemand(0, 1)
	g.SetDemand(1, 1)
	sol := FindGrouped(g, NewGroups(2, [][]int{{0}, {1}}), Options{})
	if len(sol) != 1 {
		t.Fatalf("placed %d groups, want 1 (budget binds)", len(sol))
	}
	if !g.IsFeasibleClique(sol) {
		t.Fatal("infeasible result")
	}
}

func TestFindGroupedPromotion(t *testing.T) {
	// Group 3 has a single viable candidate, compatible with exactly one
	// candidate of every other group (its other two are compatible with
	// nothing); greedy placement in the given order can strand it, and the
	// promote-on-failure rounds must recover.
	g, groups := groupedFixture(4, 3, func(gi, ci, gj, cj int) bool {
		if gj == 3 {
			return cj != 0 || ci != 0
		}
		return false
	})
	sol := FindGrouped(g, NewGroups(g.N(), groups), Options{GroupOrder: []int{0, 1, 2, 3}, GroupRounds: 4})
	if len(sol) != 4 {
		t.Fatalf("placed %d/4 groups (%v)", len(sol), sol)
	}
}

func TestFindGroupedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		c := 2 + rng.Intn(3)
		seedBlocked := rng.Int63()
		mk := func() (*Graph, [][]int) {
			r := rand.New(rand.NewSource(seedBlocked))
			return groupedFixture(n, c, func(gi, ci, gj, cj int) bool {
				return r.Intn(4) == 0
			})
		}
		g1, gr1 := mk()
		g2, gr2 := mk()
		a := FindGrouped(g1, NewGroups(g1.N(), gr1), Options{})
		b := FindGrouped(g2, NewGroups(g2.N(), gr2), Options{})
		if len(a) != len(b) {
			t.Fatal("FindGrouped not deterministic")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("FindGrouped not deterministic")
			}
		}
	}
}

func TestBulkAdjacency(t *testing.T) {
	g := NewGraph(70, 1)
	mask := newMask(70, 2, 3, 4, 66)
	g.OrAdjacencyAt(0, []int{1, 0}, []uint64{mask.Words()[1], mask.Words()[0]})
	for _, v := range []int{2, 3, 4, 66} {
		// OrAdjacencyAt is asymmetric by contract.
		if !g.Adjacent(0, v) || g.Adjacent(v, 0) {
			t.Fatalf("adjacency 0-%d not one-sided", v)
		}
	}
	// Word 1 alone reaches node 67, not node 0.
	g.OrAdjacencyAt(66, []int{1}, newMask(70, 0, 67).Words()[1:])
	if g.Adjacent(66, 0) || !g.Adjacent(66, 67) {
		t.Fatal("scattered bulk adjacency broken")
	}
	for _, v := range []int{2, 3, 4} {
		g.OrAdjacencyAt(v, []int{0, 1}, newMask(70, 0).Words())
	}
	if !g.Adjacent(0, 3) || !g.Adjacent(3, 0) {
		t.Fatal("symmetric bulk adjacency broken")
	}
	g.ClearEdge(0, 3)
	if g.Adjacent(0, 3) || g.Adjacent(3, 0) {
		t.Fatal("ClearEdge must clear both directions")
	}
}

// TestExactAgreesOnGroupedInstances cross-validates the grouped heuristic
// against exhaustive search on small instances.
func TestExactAgreesOnGroupedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(3)
		c := 2 + rng.Intn(2)
		g, groups := groupedFixture(n, c, func(gi, ci, gj, cj int) bool {
			return rng.Intn(3) == 0
		})
		got := FindGrouped(g, NewGroups(g.N(), groups), Options{})
		exact := refFindExact(g, n*c)
		if len(got) > len(exact) {
			t.Fatalf("grouped found %d members, exact maximum is %d", len(got), len(exact))
		}
	}
}

// newMask builds a bitset with the given members (test helper).
func newMask(n int, members ...int) *graphBitset {
	b := newGraphBitset(n)
	for _, m := range members {
		b.Set(m)
	}
	return b
}

// TestFindGroupedTraceFields checks the clique.grouped span's effort
// fields: a relation derived from the graph skips some pending groups as
// free, and since the search path does not depend on the relation, its folds
// and free skips add up to the folds of the all-constrained run.
func TestFindGroupedTraceFields(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, groups := randomProductGraph(rng, 400)
	effort := func(gx *Groups) (folds, free int64) {
		sink := &obs.MemSink{}
		FindGrouped(g, gx, Options{Trace: obs.New(sink)})
		evs := sink.Events()
		if len(evs) != 1 || evs[0].Name != "clique.grouped" {
			t.Fatalf("want one clique.grouped event, got %v", sink.Names())
		}
		folds, ok1 := evs[0].FieldVal("folds")
		free, ok2 := evs[0].FieldVal("free")
		if !ok1 || !ok2 {
			t.Fatal("clique.grouped lacks its folds or free field")
		}
		return folds, free
	}
	allFolds, allFree := effort(NewGroups(g.N(), groups))
	gx := NewGroups(g.N(), groups)
	relate(rng, g, gx, groups, 0)
	folds, free := effort(gx)
	if allFree != 0 || free == 0 || folds+free != allFolds {
		t.Fatalf("all constrained: %d folds, %d free; derived: %d folds, %d free", allFolds, allFree, folds, free)
	}
}
