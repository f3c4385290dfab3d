package clique

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSharedPoolMatchesFresh: one pool across every trial and graph size,
// so arenas hop between graphs exactly as regimapd's long-lived pool does.
// Each trial also searches one long-lived graph reset in place to the
// trial's graph, as a compat builder's graph is, so the pool holds arenas
// sized for the graph's earlier sizes. Every search must return what a
// search on fresh arenas returns.
func TestSharedPoolMatchesFresh(t *testing.T) {
	pool := NewPool()
	reused := NewGraph(0, 0)
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		g := randomFlatGraph(rng, 8+rng.Intn(24), 2+rng.Intn(4), 0.55, 0.5)
		reused.Reset(g.N(), g.Cap())
		for u := 0; u < g.N(); u++ {
			reused.ResetAdjacency(u)
			reused.OrAdjacency(u, g.adj[u])
			reused.AddBase(u, g.Base(u))
			for v := 0; v < g.N(); v++ {
				reused.AddWeight(u, v, g.Weight(u, v))
			}
		}
		want := Find(g, g.N(), Options{})
		for _, graph := range []*Graph{g, reused} {
			got := Find(graph, g.N(), Options{Arenas: pool})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d with shared pool (reused graph %v): got %v, want %v", trial, graph == reused, got, want)
			}
		}
	}
}

// TestPoolRetentionBounded: a long-lived pool fed graphs of ever-new sizes
// keeps at most poolCap idle arenas, and still hands a released arena back
// for a graph of its size.
func TestPoolRetentionBounded(t *testing.T) {
	pool := NewPool()
	var last *arena
	for n := 1; n <= 1000; n++ {
		last = pool.acquire(&Graph{n: n})
		pool.release(last)
	}
	if got := len(pool.free); got > poolCap {
		t.Fatalf("pool retains %d arenas after 1000 distinct sizes, want at most %d", got, poolCap)
	}
	if got := pool.acquire(&Graph{n: 1000}); got != last {
		t.Fatal("pool did not reuse the arena released for the same size")
	}
}
