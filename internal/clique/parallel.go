// Parallel Find. It keeps results byte-identical to the sequential search
// via a deterministic reduction (DESIGN.md section 8g): work is split into
// the same partitions the sequential search visits in a fixed order, partial
// results are computed by pure per-partition functions, and the merge
// consumes them in partition order regardless of which worker finished
// first. par.First's lowest-index reduction only ever skips work the merge
// provably discards.
package clique

import (
	"context"
	"slices"
	"sort"
	"sync"

	"regimap/internal/graph"
	"regimap/internal/par"
)

// Pool shares search arenas across requests and workers. regimapd installs
// one pool per process so the clique engine's states and bitsets are reused
// across mapping requests instead of reallocated; parallel searches draw one
// arena per worker from it. An arena is reused only for a graph of its own
// node count and is fully wiped on reuse, so pooling is invisible to
// results. The pool keeps at most poolCap idle arenas, dropping the least
// recently released first, so a long-lived pool fed graphs of ever-new sizes
// stays bounded.
type Pool struct {
	mu   sync.Mutex
	free []*arena // idle arenas, least recently released first
}

// poolCap bounds a Pool's idle arenas: room for several concurrent
// requests' worker arenas at one graph size.
const poolCap = 64

// NewPool returns an empty arena pool, safe for concurrent use.
func NewPool() *Pool { return &Pool{} }

// acquire returns the most recently released arena sized for g, or a fresh
// one. A nil pool always allocates.
func (p *Pool) acquire(g *Graph) *arena {
	if p == nil {
		return newArena(g)
	}
	var ar *arena
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if p.free[i].n == g.n {
			ar = p.free[i]
			p.free = slices.Delete(p.free, i, i+1)
			break
		}
	}
	p.mu.Unlock()
	if ar == nil {
		return newArena(g)
	}
	ar.rebind(g)
	return ar
}

// release returns an arena to the pool, evicting the least recently released
// one when the pool is full. A nil pool or arena is a no-op.
func (p *Pool) release(ar *arena) {
	if p == nil || ar == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) == poolCap {
		p.free = slices.Delete(p.free, 0, 1)
	}
	p.free = append(p.free, ar)
	p.mu.Unlock()
}

// rebind points a pooled arena at a new graph of the same capacity. Unlike
// reset — which only cleans member-touched entries because the graph is
// unchanged — rebind wipes every state completely: the previous request's
// graph (weights, clusters) is gone, so nothing incremental can be trusted.
func (a *arena) rebind(g *Graph) {
	if g.n != a.n {
		panic("clique: pool rebind across capacities")
	}
	a.g = g
	for _, s := range a.all {
		s.g = g
		s.members = s.members[:0]
		s.wMembers = s.wMembers[:0]
		for i := range s.sum {
			s.sum[i] = 0
		}
		s.inC.Reset()
		s.cand.Fill()
		s.miss1.Reset()
		if len(g.cluster) == 0 {
			s.byCluster = nil
		} else if len(s.byCluster) >= g.nClusters {
			s.byCluster = s.byCluster[:g.nClusters]
			for i := range s.byCluster {
				s.byCluster[i] = s.byCluster[i][:0]
			}
		} else {
			s.byCluster = make([][]int, g.nClusters)
		}
	}
	a.free = append(a.free[:0], a.all...)
}

// findParallel is Find across Options.Workers goroutines with byte-identical
// results. Both phases run on par.First.
//
// Seed phase: each seed's grow/swap is a pure function of (graph, seed,
// target), so seed i is First's candidate i: it writes into a per-index
// slot and succeeds when its clique reaches the target. First returns the
// earliest such seed — where the sequential loop returns — and skips only
// later seeds, so the merge replaying the sequential loop over the slots in
// seed order only ever reads fully computed slots.
//
// Intersection phase: the sequential pair enumeration feeds on its own
// output (each considered clique joins the pair pool), so it is replayed
// exactly, with the expensive grow/swap of each pair seed memoized. When the
// replay reaches a pair not yet memoized, it speculatively collects every
// further pair reachable over the current clique pool within the remaining
// budget, computes them in one parallel wave (a First whose candidates never
// succeed, so every pair runs), and restarts the replay. Each wave memoizes
// at least the blocking pair, so the replay terminates, and only memoized
// pure results ever influence the outcome.
func findParallel(g *Graph, target int, opts Options) (best []int) {
	workers := opts.Workers
	maxSeeds := opts.MaxSeeds
	if maxSeeds <= 0 {
		maxSeeds = DefaultMaxSeeds
	}
	maxInter := opts.MaxIntersections
	if maxInter <= 0 {
		maxInter = DefaultMaxIntersections
	}
	if target > g.n {
		target = g.n
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	sp := opts.Trace.Start("clique.parallel")
	seeds, pairs, waves := 0, 0, 0
	defer func() {
		sp.Field("nodes", int64(g.n))
		sp.Field("workers", int64(workers))
		sp.Field("seeds", int64(seeds))
		sp.Field("pairs", int64(pairs))
		sp.Field("waves", int64(waves))
		sp.Field("best", int64(len(best)))
		sp.Field("target", int64(target))
		sp.End()
	}()

	order := opts.SeedOrder
	if len(order) != g.n {
		order = g.DegreeOrder()
	}
	if len(order) > maxSeeds {
		order = order[:maxSeeds]
	}

	// One arena per worker slot, drawn on first use and shared by both
	// phases: First runs a slot's candidates on one goroutine at a time.
	arenas := make([]*arena, workers)
	arenaFor := func(w int) *arena {
		if arenas[w] == nil {
			arenas[w] = opts.Arenas.acquire(g)
		}
		return arenas[w]
	}
	defer func() {
		for _, ar := range arenas {
			opts.Arenas.release(ar)
		}
	}()

	// Seed phase.
	type seedRes struct {
		ok      bool // seed was feasible (the sequential loop calls consider)
		members []int
	}
	results := make([]seedRes, len(order))
	stop := par.First(ctx, len(order), workers, func(_ context.Context, w, i int) bool {
		ar := arenaFor(w)
		defer ar.recycleAll()
		s := ar.get()
		if !s.canAdd(order[i]) {
			return false
		}
		s.add(order[i])
		s.grow(target)
		if !opts.DisableSwap {
			s = swapImprove(s, target)
		}
		results[i] = seedRes{ok: true, members: append([]int(nil), s.members...)}
		return len(s.members) >= target
	})
	seeds = min(stop+1, len(order))

	var found [][]int
	for i := range results {
		if !results[i].ok {
			continue
		}
		c := results[i].members
		found = append(found, c)
		if len(c) > len(best) {
			best = c
		}
		if len(best) >= target {
			return best
		}
	}

	if opts.DisableIntersect {
		return best
	}

	// Intersection phase.
	sort.SliceStable(found, func(i, j int) bool { return len(found[i]) > len(found[j]) })
	found0 := append([][]int(nil), found...)
	best0 := best
	type pairJob struct {
		i, j   int
		seed   []int
		result []int
	}
	memo := map[[2]int][]int{}
	scratch := graph.NewBitset(g.n)

	// replay walks the sequential enumeration using memoized results. When it
	// hits a missing pair it stops consuming and instead collects the wave of
	// pairs the sequential loop could still reach over the current pool.
	replay := func() (missing []pairJob, result []int, complete bool) {
		found := append(found0[:0:0], found0...)
		best := best0
		pairs = 0
		consuming := true
		for i := 0; i < len(found) && pairs < maxInter; i++ {
			for j := i + 1; j < len(found) && pairs < maxInter; j++ {
				pairs++
				seed := intersectInto(scratch, found[i], found[j])
				if len(seed) == 0 || len(seed) == len(found[i]) || len(seed) == len(found[j]) {
					continue
				}
				grown, ok := memo[[2]int{i, j}]
				if !ok {
					missing = append(missing, pairJob{i: i, j: j, seed: append([]int(nil), seed...)})
					consuming = false
					continue
				}
				if !consuming {
					continue // downstream of a hole: collect only, never consume
				}
				found = append(found, grown)
				if len(grown) > len(best) {
					best = grown
				}
				if len(best) >= target {
					return nil, best, true
				}
			}
		}
		if consuming {
			return nil, best, true
		}
		return missing, nil, false
	}

	for {
		missing, result, complete := replay()
		if complete {
			return result
		}
		waves++
		par.First(ctx, len(missing), workers, func(_ context.Context, w, k int) bool {
			ar := arenaFor(w)
			s := rebuild(ar, missing[k].seed)
			s.grow(target)
			if !opts.DisableSwap {
				s = swapImprove(s, target)
			}
			missing[k].result = append([]int(nil), s.members...)
			ar.recycleAll()
			return false // every pair of the wave runs
		})
		for k := range missing {
			if missing[k].result == nil {
				return best // cancelled: a best-effort answer core.Map discards
			}
			memo[[2]int{missing[k].i, missing[k].j}] = missing[k].result
		}
	}
}

// intersectInto returns a ∩ b preserving a's order, using scratch for
// membership tests. The result aliases fresh memory only when callers copy
// it (replay copies before handing seeds to workers).
func intersectInto(scratch *graph.Bitset, a, b []int) []int {
	scratch.Reset()
	for _, v := range b {
		scratch.Set(v)
	}
	var out []int
	for _, v := range a {
		if scratch.Has(v) {
			out = append(out, v)
		}
	}
	return out
}
