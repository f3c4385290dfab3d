// Package clique finds register-constrained maximal cliques, the
// computational heart of REGIMap's placement step (paper Appendix C/D).
//
// The input is an undirected compatibility graph whose nodes carry register
// demand. Every node belongs to one cluster (REGIMap: the PE of its binding)
// and holds demand(u) registers of that cluster's file while it is in the
// clique; every cluster has a register file of regs(c) entries. A clique C
// is *feasible* when no cluster's load exceeds its file:
//
//	for every cluster c:  sum over u in C on c of demand(u)  <=  regs(c)
//
// This is Theorem C.1's per-PE register capacity, the paper's directed
// weight constraint for REGIMap's weights: w(u -> v) is demand(v) when u and
// v share a PE, so every member on PE c carries the same weight sum, c's
// load (DESIGN.md section 7.1). Feasibility is hereditary (removing members
// never raises a load), so the paper's constructive heuristic can grow a
// clique one member at a time and repair it by removal. The repository's
// exact oracle is the SAT engine (internal/exact); tests cross-validate the
// heuristic against a naive exhaustive search that sums the directed
// weights (reference_test.go).
//
// The engine is allocation-free on its hot path: every search draws an
// arena of clique states and bitsets from its graph, reuses the states
// across seeds, swap-repair rounds and grouped swaps, and hands the arena
// back for the graph's next search (see DESIGN.md's hot-path memory model).
// Reuse is deterministic — states are fully reset on reuse, so results are
// byte-identical to fresh allocation (enforced by the reference property
// tests in reference_test.go).
package clique

import (
	"sort"
	"sync"

	"regimap/internal/graph"
	"regimap/internal/obs"
)

// Graph is a compatibility graph whose nodes carry register demand in the
// register file of their cluster. Adjacency is symmetric. A graph holds its
// idle search arenas behind a mutex, so it must not be copied.
type Graph struct {
	n        int
	adj      []*graph.Bitset
	cluster  []int      // cluster of each node
	demand   []int      // registers each node holds in its cluster's file
	regs     []int      // register file of each cluster
	deg      []int      // cached Degrees (emptied by any adjacency mutation)
	degOrder []int      // cached DegreeOrder (nil after any adjacency mutation)
	slab     graph.Slab // adj's storage, kept across Reset

	mu   sync.Mutex
	idle []*arena // search arenas sized for this node and cluster count
}

// NewGraph returns an empty graph of n nodes and the given number of
// clusters. Every node starts in cluster 0 with no demand, and every file
// holds no registers, so the graph is unconstrained until demands are set.
func NewGraph(n, clusters int) *Graph {
	g := &Graph{}
	g.Reset(n, clusters)
	return g
}

// Reset makes g a graph of n nodes and the given number of clusters, every
// node in cluster 0 with no demand and every file empty, reusing its
// storage: the adjacency slab grows geometrically, so an owner that resizes
// one graph again and again (the compat builder, reset for every II and
// every inserted route node) stops allocating once it has seen its largest
// size. The adjacency rows keep whatever the slab held — empty on a new
// graph, stale words otherwise — so after a Reset the caller rewrites every
// row (ResetAdjacency, then its edges) before searching. The idle search
// arenas are dropped when the node or cluster count changes, since they are
// sized for both. No search may run during a Reset.
func (g *Graph) Reset(n, clusters int) {
	if n != g.n || clusters != len(g.regs) {
		g.mu.Lock()
		g.idle = nil
		g.mu.Unlock()
	}
	g.n = n
	g.adj = g.slab.Carve(n, n)
	g.cluster = resize(g.cluster, n)
	g.demand = resize(g.demand, n)
	g.regs = resize(g.regs, clusters)
	g.dropDegrees()
}

// resize returns s with n zero elements, reallocating only when it is too
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetCluster puts node u in cluster c.
func (g *Graph) SetCluster(u, c int) { g.cluster[u] = c }

// SetDemand sets the registers node u holds in its cluster's file while it
// is in a clique (REGIMap: its operation's rotating registers). Demands are
// non-negative, which keeps feasibility hereditary.
func (g *Graph) SetDemand(u, d int) { g.demand[u] = d }

// SetRegs sets cluster c's register file.
func (g *Graph) SetRegs(c, r int) { g.regs[c] = r }

// Cluster returns node u's cluster.
func (g *Graph) Cluster(u int) int { return g.cluster[u] }

// Demand returns node u's register demand.
func (g *Graph) Demand(u int) int { return g.demand[u] }

// Regs returns cluster c's register file.
func (g *Graph) Regs(c int) int { return g.regs[c] }

// Clusters returns the cluster count.
func (g *Graph) Clusters() int { return len(g.regs) }

// N returns the node count.
func (g *Graph) N() int { return g.n }

// AddEdge marks u and v compatible (symmetric).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("clique: self edge")
	}
	g.adj[u].Set(v)
	g.adj[v].Set(u)
	g.dropDegrees()
}

// Adjacent reports whether u and v are compatible.
func (g *Graph) Adjacent(u, v int) bool { return g.adj[u].Has(v) }

// OrAdjacencyWords bulk-marks u compatible with the members of one word
// range: it ORs words into u's row starting at word lo, covering node ids
// 64*lo onwards. Callers are responsible for symmetry (apply the mirrored
// words to the other side) and for words that exclude u itself; the compat
// builder passes the few words one partner operation's candidates span.
func (g *Graph) OrAdjacencyWords(u, lo int, words []uint64) {
	g.adj[u].OrWords(lo, words)
	g.dropDegrees()
}

// AndNotAdjacency bulk-clears every member of mask from u's adjacency row.
// Like OrAdjacencyWords, symmetry is the caller's responsibility; the
// incremental compat builder uses this to drop a rescheduled operation's
// stale edges before rebuilding only its rows.
func (g *Graph) AndNotAdjacency(u int, mask *graph.Bitset) {
	g.adj[u].AndNot(mask)
	g.dropDegrees()
}

// ResetAdjacency clears u's entire adjacency row (one side only).
func (g *Graph) ResetAdjacency(u int) {
	g.adj[u].Reset()
	g.dropDegrees()
}

// ClearEdge removes a compatibility edge (both directions).
func (g *Graph) ClearEdge(u, v int) {
	g.adj[u].Clear(v)
	g.adj[v].Clear(u)
	g.dropDegrees()
}

// dropDegrees invalidates the degree caches after an adjacency mutation,
// keeping the degree vector's storage for the next sweep.
func (g *Graph) dropDegrees() {
	g.deg = g.deg[:0]
	g.degOrder = nil
}

// Degrees returns every node's degree (the number of nodes compatible with
// it), computed in one popcount sweep over the adjacency rows and cached
// until the next adjacency mutation; Degree, DegreeOrder and the grouped
// search's default order all read this one vector. Callers must not modify
// it. The caches fill lazily, so a caller about to search one graph from
// several goroutines fills them first: Degrees for FindGrouped, DegreeOrder
// for Find.
func (g *Graph) Degrees() []int {
	if len(g.deg) != g.n {
		if cap(g.deg) < g.n {
			g.deg = make([]int, g.n)
		}
		g.deg = g.deg[:g.n]
		for u, row := range g.adj {
			g.deg[u] = row.Count()
		}
	}
	return g.deg
}

// Degree returns the number of nodes compatible with u.
func (g *Graph) Degree(u int) int { return g.Degrees()[u] }

// DegreeOrder returns the node ids sorted by descending degree (id as the
// deterministic tie-break) — Find's seed order. The order is cached until
// the next adjacency mutation, so repeated searches of one graph sort once.
func (g *Graph) DegreeOrder() []int {
	if g.degOrder != nil {
		return g.degOrder
	}
	deg := g.Degrees()
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] > deg[order[j]]
		}
		return order[i] < order[j]
	})
	g.degOrder = order
	return order
}

// IsFeasibleClique verifies that members form a clique and that no
// cluster's load exceeds its register file, counting loads from scratch.
// Exposed so callers (and property tests) can independently audit results.
func (g *Graph) IsFeasibleClique(members []int) bool {
	load := make([]int, len(g.regs))
	for i, u := range members {
		for j, v := range members {
			if i != j && !g.adj[u].Has(v) {
				return false
			}
		}
		c := g.cluster[u]
		if load[c] += g.demand[u]; load[c] > g.regs[c] {
			return false
		}
	}
	return true
}

// arena pools clique states for one search invocation. A search takes it
// from its graph and hands it back when done, and no two searches hold one
// arena at once, so reuse is fully deterministic: get() returns either a
// brand-new state or a recycled one reset to exactly the fresh-state
// contents. recycleAll() returns every state ever created to the free list;
// callers must copy any member slice they intend to keep before invoking it.
type arena struct {
	g       *Graph
	all     []*state
	free    []*state
	scratch *graph.Bitset // intersection-phase scratch (lazily allocated)
}

// acquire returns one of g's idle arenas, or a new one.
func (g *Graph) acquire() *arena {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := len(g.idle)
	if k == 0 {
		return &arena{g: g}
	}
	ar := g.idle[k-1]
	g.idle = g.idle[:k-1]
	return ar
}

// release hands an arena back to g with every state free.
func (g *Graph) release(ar *arena) {
	ar.recycleAll()
	g.mu.Lock()
	g.idle = append(g.idle, ar)
	g.mu.Unlock()
}

func (a *arena) get() *state {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		s.reset()
		return s
	}
	n := a.g.n
	s := &state{
		g:       a.g,
		ar:      a,
		load:    make([]int, len(a.g.regs)),
		inC:     graph.NewBitset(n),
		cand:    graph.NewBitset(n),
		miss1:   graph.NewBitset(n),
		dead:    graph.NewBitset(n),
		scoreUB: make([]int, n),
	}
	s.cand.Fill()
	a.all = append(a.all, s)
	return s
}

// put returns one state to the free list; the caller must drop its reference.
func (a *arena) put(s *state) { a.free = append(a.free, s) }

// recycleAll makes every state created so far available for reuse.
func (a *arena) recycleAll() { a.free = append(a.free[:0], a.all...) }

// state tracks one growing clique with its register load per cluster.
type state struct {
	g       *Graph
	ar      *arena
	members []int
	load    []int // cluster -> summed demand of the members on it
	inC     *graph.Bitset
	cand    *graph.Bitset // nodes adjacent to every member
	miss1   *graph.Bitset // non-members adjacent to every member but one
	dead    *graph.Bitset // grow's scratch: candidates proven register-infeasible
	scoreUB []int         // grow's scratch: stale upper bound on |adj(u) ∩ cand|
}

// reset restores the fresh-state invariants, in O(clusters + words).
func (s *state) reset() {
	s.members = s.members[:0]
	clear(s.load)
	s.inC.Reset()
	s.cand.Fill()
	s.miss1.Reset()
}

// canAdd reports whether u keeps the clique feasible.
func (s *state) canAdd(u int) bool {
	return !s.inC.Has(u) && s.cand.Has(u) && s.fits(u)
}

// fits is canAdd's register check: u's demand fits its cluster's file.
func (s *state) fits(u int) bool {
	c := s.g.cluster[u]
	return s.load[c]+s.g.demand[u] <= s.g.regs[c]
}

func (s *state) add(u int) {
	s.load[s.g.cluster[u]] += s.g.demand[u]
	s.members = append(s.members, u)
	s.inC.Set(u)
	// A node u is not adjacent to moves one miss up: candidates outside
	// adj(u) now miss exactly u, one-miss nodes outside it drop out. u itself
	// spills out of cand, but it is a member now.
	s.cand.AndSpill(s.g.adj[u], s.miss1)
	s.miss1.Clear(u)
}

// fitsSwap is fits(w) against the clique C - x + y without building it, for
// swapInGroup's trials (y = -1 adds nobody): w's cluster c loses x's demand
// when x is on c and gains y's when y is. Adjacency is the caller's job.
// C - x itself needs no check: feasibility is hereditary.
func (s *state) fitsSwap(w, x, y int) bool {
	g := s.g
	c := g.cluster[w]
	load := s.load[c] + g.demand[w]
	if g.cluster[x] == c {
		load -= g.demand[x]
	}
	if y >= 0 && g.cluster[y] == c {
		load += g.demand[y]
	}
	return load <= g.regs[c]
}

// grow extends the clique greedily until no candidate fits, preferring the
// candidate with the most arcs to the remaining candidate set (Appendix D's
// "maximum number of arcs to the nodes outside the clique" tie-break), with
// node id as the deterministic final tie-break. It stops early at target.
//
// Candidate scores |adj(u) ∩ cand| are computed inside the argmax scan as
// one word-level popcount pass per candidate — on the dense compatibility
// graphs REGIMap produces, fusing the score into the scan is cheaper than
// maintaining scores incrementally across adds (each add evicts few
// candidates but every evicted node's surviving neighbourhood is nearly all
// of cand, so the decremental walk degenerates to a per-bit pass over the
// whole graph).
//
// Register infeasibility is hereditary — the loads only grow while the
// clique grows — so a candidate that fails canAdd once is marked dead and
// never re-checked on a later scan.
// Scores are monotone too: cand only shrinks, so a score computed on any
// earlier iteration upper-bounds the current one, and a candidate whose
// stale bound cannot beat the running argmax is skipped without touching
// its adjacency row (the selected argmax, and therefore the result, is
// exactly the one a full rescan would pick).
func (s *state) grow(target int) {
	if len(s.members) >= target {
		return
	}
	s.dead.Reset()
	for i := range s.scoreUB {
		s.scoreUB[i] = 1 << 30
	}
	for len(s.members) < target {
		best, bestScore := -1, -1
		s.cand.ForEach(func(u int) bool {
			if s.dead.Has(u) || s.scoreUB[u] <= bestScore {
				return true
			}
			if !s.canAdd(u) {
				s.dead.Set(u)
				return true
			}
			sc := s.g.adj[u].IntersectCount(s.cand)
			s.scoreUB[u] = sc
			if sc > bestScore {
				best, bestScore = u, sc
			}
			return true
		})
		if best == -1 {
			return
		}
		s.add(best)
	}
}

// rebuild constructs a pooled state containing exactly the given feasible
// members.
func rebuild(ar *arena, members []int) *state {
	s := ar.get()
	for _, u := range members {
		s.add(u)
	}
	return s
}

// The search budgets Options' zero values select. Find reads the first
// two, FindGrouped the third; core.Map's Explore scouts widen all three
// from here.
const (
	DefaultMaxSeeds         = 16
	DefaultMaxIntersections = 32
	DefaultGroupRounds      = 4
)

// Options tunes the heuristic search; zero values select the paper's
// configuration.
type Options struct {
	// MaxSeeds bounds how many greedy starts are attempted (<=0:
	// DefaultMaxSeeds).
	MaxSeeds int
	// MaxIntersections bounds the clique-pair intersection phase (<=0:
	// DefaultMaxIntersections).
	MaxIntersections int
	// DisableSwap turns off the one-out swap repair (ablation).
	DisableSwap bool
	// DisableIntersect turns off the intersection re-seeding (ablation).
	DisableIntersect bool
	// GroupRounds bounds FindGrouped's promote-and-retry rounds (<=0:
	// DefaultGroupRounds).
	GroupRounds int
	// GroupOrder, when non-nil, fixes FindGrouped's initial placement order
	// (REGIMap passes schedule order so operations land next to their
	// already-placed producers). Defaults to most-constrained-first.
	GroupOrder []int
	// Trace, when non-nil, receives clique.find / clique.grouped events.
	// The nil default costs nothing (see internal/obs).
	Trace *obs.Tracer
}

// Find runs the paper's constructive heuristic: greedy growth from many
// seeds, one-out swap repair, then pairwise intersection re-seeding. It
// returns the best feasible clique found (possibly smaller than target) —
// never nil, possibly empty.
func Find(g *Graph, target int, opts Options) (best []int) {
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

	sp := opts.Trace.Start("clique.find")
	seeds, pairs := 0, 0
	defer func() {
		sp.Field("nodes", int64(g.n))
		sp.Field("seeds", int64(seeds))
		sp.Field("pairs", int64(pairs))
		sp.Field("best", int64(len(best)))
		sp.Field("target", int64(target))
		sp.End()
	}()

	// Seed order: highest-degree nodes first (most likely to appear in a
	// large clique), id as tie-break; the graph caches the sort.
	order := g.DegreeOrder()
	if len(order) > maxSeeds {
		order = order[:maxSeeds]
	}

	ar := g.acquire()
	defer g.release(ar)
	var found [][]int
	consider := func(s *state) bool {
		c := append([]int(nil), s.members...)
		found = append(found, c)
		if len(c) > len(best) {
			best = c
		}
		return len(best) >= target
	}

	for _, seed := range order {
		seeds++
		s := ar.get()
		if !s.canAdd(seed) {
			ar.recycleAll()
			continue
		}
		s.add(seed)
		s.grow(target)
		if !opts.DisableSwap {
			s = swapImprove(s, target)
		}
		done := consider(s)
		ar.recycleAll()
		if done {
			return best
		}
	}

	if !opts.DisableIntersect {
		// Pairwise intersections of the best cliques become new seeds
		// (Appendix D: "the intersect of pairs of cliques is the next
		// initial clique to be maximized").
		sort.SliceStable(found, func(i, j int) bool { return len(found[i]) > len(found[j]) })
		for i := 0; i < len(found) && pairs < maxInter; i++ {
			for j := i + 1; j < len(found) && pairs < maxInter; j++ {
				pairs++
				seed := intersect(ar, found[i], found[j])
				// Skip seeds identical to either parent: regrowing a clique
				// already considered cannot beat it, and the re-seed budget is
				// better spent on genuinely new starting points.
				if len(seed) == 0 || len(seed) == len(found[i]) || len(seed) == len(found[j]) {
					continue
				}
				s := rebuild(ar, seed)
				s.grow(target)
				if !opts.DisableSwap {
					s = swapImprove(s, target)
				}
				done := consider(s)
				ar.recycleAll()
				if done {
					return best
				}
			}
		}
	}
	return best
}

// swapImprove applies the paper's repair move: when growth stalls, look for
// an outside node adjacent to all members but one, swap it in, and regrow.
// A bounded number of rounds keeps termination obvious.
func swapImprove(s *state, target int) *state {
	best := s
	cur := s
	for round := 0; round < 2*len(cur.members)+4 && len(cur.members) < target; round++ {
		u, x := findSwap(cur)
		if u == -1 {
			break
		}
		next := removeMember(cur, x)
		if !next.canAdd(u) {
			// The candidate overflows its register file even after the
			// removal; blacklisting would require bookkeeping — simply stop.
			break
		}
		next.add(u)
		next.grow(target)
		if len(next.members) <= len(cur.members) {
			break // swap did not help; avoid cycling
		}
		cur = next
		if len(cur.members) > len(best.members) {
			best = cur
		}
	}
	return best
}

// findSwap returns the lowest-id outside node u adjacent to all members
// except exactly one, and that member x, or (-1, -1): the one-miss set's
// first member.
func findSwap(s *state) (u, x int) {
	if u = s.miss1.First(); u == -1 {
		return -1, -1
	}
	return u, s.blocker(u)
}

// blocker returns the member a one-miss node u is not adjacent to, or -1.
func (s *state) blocker(u int) int {
	for _, m := range s.members {
		if !s.g.adj[u].Has(m) {
			return m
		}
	}
	return -1
}

func removeMember(s *state, x int) *state {
	next := s.ar.get()
	for _, m := range s.members {
		if m != x {
			next.add(m)
		}
	}
	return next
}

// intersect returns a ∩ b using the arena's scratch bitset; the result
// aliases arena-free memory only until the next intersect call, which is
// fine for the transient seed of the re-seeding phase.
func intersect(ar *arena, a, b []int) []int {
	if ar.scratch == nil {
		ar.scratch = graph.NewBitset(ar.g.n)
	} else {
		ar.scratch.Reset()
	}
	for _, v := range b {
		ar.scratch.Set(v)
	}
	var out []int
	for _, v := range a {
		if ar.scratch.Has(v) {
			out = append(out, v)
		}
	}
	return out
}
