package clique

import (
	"math/rand"
	"reflect"
	"testing"
)

// copyGraph resets dst to src's node and cluster counts, lays its rows out
// from gx (nil: dense), and copies src's adjacency, clusters, demands and
// register files into it. gx's relation must hold on src.
func copyGraph(dst, src *Graph, gx *Groups) {
	dst.Reset(src.N(), src.Clusters())
	dst.Layout(gx)
	for c := 0; c < src.Clusters(); c++ {
		dst.SetRegs(c, src.Regs(c))
	}
	for u := 0; u < src.N(); u++ {
		dst.SetCluster(u, src.Cluster(u))
		dst.SetDemand(u, src.Demand(u))
		for v := u + 1; v < src.N(); v++ {
			if src.Adjacent(u, v) {
				dst.AddEdge(u, v)
			}
		}
	}
}

// TestGraphArenasMatchFresh: one long-lived graph, reset in place to every
// trial's graph as the compat builder's graph is, serves each search from
// the arena its earlier searches left behind. Node and cluster counts
// repeat across trials, so some Resets must keep the arena and the others
// must drop it. Odd trials lay the rows out from the trial's group index,
// as the compat builder does, and even trials keep them dense. Each trial
// runs Find and FindGrouped passes in turn on the reused graph, then once
// more on the arena they dirtied. Every search must return what it returns
// on a fresh dense copy of the graph.
func TestGraphArenasMatchFresh(t *testing.T) {
	reused := NewGraph(0, 0)
	sizes := []int{24, 40, 70}
	kept, dropped := 0, 0
	for trial := 0; trial < 36; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		n, clusters := sizes[rng.Intn(len(sizes))], 1+rng.Intn(3)
		g := randomRegGraph(rng, n, clusters, fileOf(1, 4), 0.7, 0.5)
		groups := randomGroups(rng, g, 5, trial%2 == 1)
		gx := NewGroups(n, groups)
		relate(rng, g, gx, groups, 0)
		order := rng.Perm(len(groups))
		passes := []func(h *Graph) []int{
			func(h *Graph) []int { return FindGrouped(h, gx, order, Options{}, nil) },
			func(h *Graph) []int { return FindGrouped(h, gx, nil, Options{}, nil) },
			func(h *Graph) []int { return Find(h, len(groups), Options{}, nil) },
			func(h *Graph) []int { return Find(h, n, Options{DisableIntersect: true}, nil) },
		}
		want := make([][]int, len(passes))
		for i, pass := range passes {
			fresh := NewGraph(0, 0)
			copyGraph(fresh, g, nil)
			want[i] = pass(fresh)
		}

		sameShape := reused.N() == n && reused.Clusters() == clusters
		before := reused.ar
		var laid *Groups
		if trial%2 == 1 {
			laid = gx
		}
		copyGraph(reused, g, laid)
		if after := reused.ar; sameShape && after != before || !sameShape && after != nil {
			t.Fatalf("trial %d: Reset to %d nodes, %d clusters (same shape %v) left arena %p, had %p",
				trial, n, clusters, sameShape, after, before)
		}
		if sameShape {
			kept++
		} else {
			dropped++
		}
		for round := 0; round < 2; round++ {
			for i, pass := range passes {
				if got := pass(reused); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("trial %d pass %d round %d on the reused arena: %v, fresh graph %v", trial, i, round, got, want[i])
				}
			}
		}
		if reused.ar == nil {
			t.Fatalf("trial %d: the searches left no arena", trial)
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("%d Resets kept the arena and %d dropped it; want both", kept, dropped)
	}
}
