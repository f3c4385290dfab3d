package clique

import (
	"math/rand"
	"reflect"
	"testing"
)

// workerCounts are the pool sizes the determinism suite sweeps; CI runs the
// sweep again under -race at GOMAXPROCS 1, 2, and 8.
var workerCounts = []int{2, 3, 8}

// targetsFor returns the target sweep for one graph: the unreachable full
// search, the exactly-achievable early-exit path, and one below it.
func targetsFor(g *Graph, achieved int) []int {
	targets := []int{g.N()}
	if achieved > 0 {
		targets = append(targets, achieved)
	}
	if achieved > 1 {
		targets = append(targets, achieved-1)
	}
	return targets
}

func TestFindParallelMatchesSequential(t *testing.T) {
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				rng := rand.New(rand.NewSource(int64(9000 + trial)))
				g := tc.gen(rng)
				seq := Find(g, g.N(), tc.opts)
				for _, target := range targetsFor(g, len(seq)) {
					want := Find(g, target, tc.opts)
					for _, w := range workerCounts {
						opts := tc.opts
						opts.Workers = w
						got := Find(g, target, opts)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d target %d workers %d: got %v, sequential %v",
								trial, target, w, got, want)
						}
					}
				}
			}
		})
	}
}

func TestFindParallelSharedPoolMatchesSequential(t *testing.T) {
	// One pool across every trial, graph size, and worker count: arenas hop
	// between graphs exactly as regimapd's long-lived pool does. Each trial
	// also searches one long-lived graph reset in place to the trial's
	// graph, as a compat builder's graph is, so the pool holds arenas
	// sized for the graph's earlier sizes.
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
		for _, w := range []int{1, 2, 8} {
			for _, graph := range []*Graph{g, reused} {
				got := Find(graph, g.N(), Options{Workers: w, Arenas: pool})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d workers %d with shared pool (reused graph %v): got %v, want %v", trial, w, graph == reused, got, want)
				}
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
