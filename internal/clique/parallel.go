// Parallel Find. It keeps results byte-identical to the sequential search
// via a deterministic reduction (DESIGN.md section 8g): work is split into
// the same partitions the sequential search visits in a fixed order, partial
// results are computed by pure per-partition functions, and the merge
// consumes them in partition order regardless of which worker finished
// first. The shared atomic stop index only ever skips work the merge
// provably discards.
package clique

import (
	"sort"
	"sync"
	"sync/atomic"

	"regimap/internal/graph"
)

// Pool shares search arenas across requests and workers. regimapd installs
// one pool per process so the clique engine's states and bitsets are reused
// across mapping requests instead of reallocated; parallel searches draw one
// arena per worker from it. Arenas are bucketed by node capacity and fully
// wiped on reuse, so pooling is invisible to results.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*arena
}

// NewPool returns an empty arena pool, safe for concurrent use.
func NewPool() *Pool { return &Pool{free: map[int][]*arena{}} }

func (p *Pool) acquire(g *Graph) *arena {
	if p == nil {
		return newArena(g)
	}
	p.mu.Lock()
	list := p.free[g.n]
	var ar *arena
	if k := len(list); k > 0 {
		ar, p.free[g.n] = list[k-1], list[:k-1]
	}
	p.mu.Unlock()
	if ar == nil {
		return newArena(g)
	}
	ar.rebind(g)
	return ar
}

func (p *Pool) release(ar *arena) {
	if p == nil || ar == nil {
		return
	}
	p.mu.Lock()
	p.free[ar.g.n] = append(p.free[ar.g.n], ar)
	p.mu.Unlock()
}

// rebind points a pooled arena at a new graph of the same capacity. Unlike
// reset — which only cleans member-touched entries because the graph is
// unchanged — rebind wipes every state completely: the previous request's
// graph (weights, clusters) is gone, so nothing incremental can be trusted.
func (a *arena) rebind(g *Graph) {
	if g.n != a.g.n {
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
		if g.cluster == nil {
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

// acquireArena hands the search an arena — pooled when the caller installed
// Options.Arenas, private otherwise — plus its release.
func (o Options) acquireArena(g *Graph) (*arena, func()) {
	if o.Arenas == nil {
		return newArena(g), func() {}
	}
	ar := o.Arenas.acquire(g)
	return ar, func() { o.Arenas.release(ar) }
}

// canceled reports whether the caller's context was cancelled. Workers poll
// it between partitions; a cancelled search returns a best-effort (possibly
// non-deterministic) result, which is fine because core.Map discards the
// whole attempt on cancellation.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// runWorkers runs fn on n goroutines and waits for all of them.
func runWorkers(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// casMin lowers v to x if x is smaller (lock-free running minimum).
func casMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// findParallel is Find across Options.Workers goroutines with byte-identical
// results.
//
// Seed phase: each seed's grow/swap is a pure function of (graph, seed,
// target), so workers steal seed indices from an atomic counter, write into
// a per-index slot, and the merge replays the sequential loop over the slots
// in seed order. The shared `stop` bound is the earliest seed index whose
// clique reached the target: the sequential loop returns there, so later
// indices are skipped — indices at or before it are always fully computed.
//
// Intersection phase: the sequential pair enumeration feeds on its own
// output (each considered clique joins the pair pool), so it is replayed
// exactly, with the expensive grow/swap of each pair seed memoized. When the
// replay reaches a pair not yet memoized, it speculatively collects every
// further pair reachable over the current clique pool within the remaining
// budget, computes them in one parallel wave, and restarts the replay. Each
// wave memoizes at least the blocking pair, so the replay terminates, and
// only memoized pure results ever influence the outcome.
func findParallel(g *Graph, target int, opts Options) (best []int) {
	workers := opts.Workers
	maxSeeds := opts.MaxSeeds
	if maxSeeds <= 0 {
		maxSeeds = 16
	}
	maxInter := opts.MaxIntersections
	if maxInter <= 0 {
		maxInter = 32
	}
	if target > g.n {
		target = g.n
	}

	sp := opts.Trace.Start("clique.parallel")
	pairs, waves := 0, 0
	defer func() {
		sp.Field("nodes", int64(g.n))
		sp.Field("workers", int64(workers))
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

	// Seed phase.
	type seedRes struct {
		ok      bool // seed was feasible (the sequential loop calls consider)
		members []int
	}
	results := make([]seedRes, len(order))
	var next, stop atomic.Int64
	stop.Store(int64(len(order)))
	runWorkers(workers, func(w int) {
		ar, release := opts.acquireArena(g)
		defer release()
		wsp := opts.Trace.Start("clique.partition")
		done := 0
		defer func() {
			wsp.Field("worker", int64(w))
			wsp.Field("seeds", int64(done))
			wsp.End()
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(order) || opts.canceled() {
				return
			}
			if int64(i) > stop.Load() {
				continue // the merge provably stops before this index
			}
			s := ar.get()
			if !s.canAdd(order[i]) {
				ar.recycleAll()
				done++
				continue
			}
			s.add(order[i])
			s.grow(target)
			if !opts.DisableSwap {
				s = swapImprove(s, target)
			}
			results[i] = seedRes{ok: true, members: append([]int(nil), s.members...)}
			if len(s.members) >= target {
				casMin(&stop, int64(i))
			}
			ar.recycleAll()
			done++
		}
	})

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
		if opts.canceled() {
			return best
		}
		waves++
		var cursor atomic.Int64
		runWorkers(workers, func(w int) {
			ar, release := opts.acquireArena(g)
			defer release()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(missing) || opts.canceled() {
					return
				}
				s := rebuild(ar, missing[k].seed)
				s.grow(target)
				if !opts.DisableSwap {
					s = swapImprove(s, target)
				}
				missing[k].result = append([]int(nil), s.members...)
				ar.recycleAll()
			}
		})
		for k := range missing {
			if missing[k].result == nil {
				return best // cancelled mid-wave
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
