// Package clique finds register-weight-constrained maximal cliques, the
// computational heart of REGIMap's placement step (paper Appendix C/D).
//
// The input is an undirected compatibility graph whose directed arc weights
// encode register demand: weight(u, v) is the number of registers node u's
// mapping must hold while node v's mapping is also in the solution. A clique
// C is *feasible* when every member's outgoing weight into C stays within the
// register-file budget:
//
//	for all u in C:  sum over v in C of weight(u, v)  <=  Cap
//
// Feasibility is hereditary (removing members never increases any sum), so
// the paper's constructive heuristic can grow a clique one member at a time
// and repair it by removal. The repository's exact oracle is the SAT engine
// (internal/exact); tests cross-validate the heuristic against a naive
// exhaustive search (reference_test.go).
//
// The engine is allocation-free on its hot path: every search call owns a
// search-local arena that pools clique states and their bitsets across
// seeds, swap-repair rounds, and grouped swaps (see DESIGN.md's hot-path
// memory model). Pooling is deterministic — states are fully reset
// on reuse, so results are byte-identical to fresh allocation (enforced by
// the reference property tests in reference_test.go).
package clique

import (
	"sort"

	"regimap/internal/graph"
	"regimap/internal/obs"
)

// Graph is a weighted compatibility graph. Adjacency is symmetric; weights
// are directed and default to zero.
type Graph struct {
	n         int
	adj       []*graph.Bitset
	weight    []int // flat n*n directed weights (nil until AddWeight)
	fn        func(u, v int) int
	cluster   []int  // weight-interaction class per node (empty: global)
	nClusters int    // 1 + max cluster id (0 when cluster is empty)
	outW      []bool // whether a node has any outgoing weight
	base      []int
	anyW      bool // any non-zero weight or base exists (false => feasibility is vacuous)
	cap       int
	deg       []int      // cached Degrees (emptied by any adjacency mutation)
	degOrder  []int      // cached DegreeOrder (nil after any adjacency mutation)
	slab      graph.Slab // adj's storage, kept across Reset
}

// NewGraph returns an empty graph of n nodes with the given per-node weight
// budget (the register-file size; negative means unconstrained).
func NewGraph(n, cap int) *Graph {
	g := &Graph{}
	g.Reset(n, cap)
	return g
}

// Reset makes g a graph of n nodes with the given budget and no weights,
// reusing its storage: the adjacency slab grows geometrically, so an owner
// that resizes one graph again and again (the compat builder, reset for
// every II and every inserted route node) stops allocating once it has seen
// its largest size. The adjacency rows keep whatever the slab held — empty
// on a new graph, stale words otherwise — so after a Reset the caller
// rewrites every row (ResetAdjacency, then its edges) before searching.
func (g *Graph) Reset(n, cap int) {
	g.n, g.cap = n, cap
	g.adj = g.slab.Carve(n, n)
	g.weight, g.fn, g.anyW = nil, nil, false
	g.cluster, g.nClusters = g.cluster[:0], 0
	g.outW = resize(g.outW, n)
	g.base = resize(g.base, n)
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

// AddBase adds an unconditional weight to node u, charged whenever u is in a
// clique (REGIMap uses this for self-recurrence register demand: an
// accumulator holds its registers regardless of which other mappings join).
func (g *Graph) AddBase(u, w int) {
	g.base[u] += w
	if g.base[u] != 0 {
		g.anyW = true
	}
}

// SetBase overwrites node u's unconditional weight (the incremental compat
// builder re-derives every base per schedule attempt).
func (g *Graph) SetBase(u, w int) {
	g.base[u] = w
	if w != 0 {
		g.anyW = true
	}
}

// Base returns node u's unconditional weight.
func (g *Graph) Base(u int) int { return g.base[u] }

// N returns the node count.
func (g *Graph) N() int { return g.n }

// Cap returns the per-node weight budget.
func (g *Graph) Cap() int { return g.cap }

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

// OrAdjacency bulk-marks u compatible with every member of mask. Callers are
// responsible for symmetry (apply the mirrored mask to the other side) and
// for masks that exclude u itself; REGIMap's compatibility construction uses
// this for the dependence-free operation pairs that dominate large arrays.
func (g *Graph) OrAdjacency(u int, mask *graph.Bitset) {
	g.adj[u].Or(mask)
	g.dropDegrees()
}

// OrAdjacencyWords is OrAdjacency over one word range: it ORs words into
// u's row starting at word lo, covering node ids 64*lo onwards. Symmetry is
// the caller's responsibility, as for OrAdjacency; the compat builder passes
// the few words one partner operation's candidates span.
func (g *Graph) OrAdjacencyWords(u, lo int, words []uint64) {
	g.adj[u].OrWords(lo, words)
	g.dropDegrees()
}

// AndNotAdjacency bulk-clears every member of mask from u's adjacency row.
// Like OrAdjacency, symmetry is the caller's responsibility; the incremental
// compat builder uses this to drop a rescheduled operation's stale edges
// before rebuilding only its rows.
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

// AddWeight increases the directed weight u -> v (both directions are stored
// independently, matching the paper's asymmetric register demand). Mutually
// exclusive with SetWeightFunc. Storage is a flat n*n slice, allocated on the
// first non-zero weight: the search's inner loops stay hash- and
// allocation-free, and the common all-zero graphs pay nothing.
func (g *Graph) AddWeight(u, v, w int) {
	if g.fn != nil {
		panic("clique: AddWeight after SetWeightFunc")
	}
	if w != 0 {
		if g.weight == nil {
			g.weight = make([]int, g.n*g.n)
		}
		g.weight[u*g.n+v] += w
		g.outW[u] = true
		g.anyW = true
	}
}

// SetWeightFunc installs a computed weight in place of the stored slice —
// REGIMap's register demand is a pure function of the pair (same PE ->
// consumer demand), and avoiding materialized weights keeps the search's
// inner loops allocation- and hash-free. hasOut must report whether a node
// has any non-zero outgoing weight. Calling it again refreshes the outgoing
// and cluster summaries (the incremental compat builder does this once per
// schedule attempt, because register demands move with the schedule).
func (g *Graph) SetWeightFunc(fn func(u, v int) int, hasOut func(u int) bool, cluster func(u int) int) {
	if g.weight != nil {
		panic("clique: SetWeightFunc after AddWeight")
	}
	g.fn = fn
	if len(g.cluster) != g.n {
		g.cluster = resize(g.cluster, g.n)
	}
	g.nClusters = 0
	g.anyW = false
	for u := 0; u < g.n; u++ {
		g.outW[u] = hasOut(u)
		g.cluster[u] = cluster(u)
		if g.cluster[u]+1 > g.nClusters {
			g.nClusters = g.cluster[u] + 1
		}
		if g.outW[u] || g.base[u] != 0 {
			g.anyW = true
		}
	}
}

// Weight returns the directed weight u -> v.
func (g *Graph) Weight(u, v int) int {
	if g.fn != nil {
		return g.fn(u, v)
	}
	if g.weight == nil {
		return 0
	}
	return g.weight[u*g.n+v]
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
// it. The cache fills lazily, so a caller about to search one graph from
// several goroutines calls Degrees first.
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
// the next adjacency mutation, so repeated searches of one graph sort once;
// callers running Find several times can also pass it via Options.SeedOrder.
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

// IsFeasibleClique verifies that members form a clique and every member's
// outgoing weight into the clique respects the budget. Exposed so callers
// (and property tests) can independently audit results.
func (g *Graph) IsFeasibleClique(members []int) bool {
	for i, u := range members {
		sum := g.base[u]
		for j, v := range members {
			if i == j {
				continue
			}
			if !g.adj[u].Has(v) {
				return false
			}
			sum += g.Weight(u, v)
		}
		if g.cap >= 0 && sum > g.cap {
			return false
		}
	}
	return true
}

// arena pools clique states for one search invocation. It is search-local —
// never shared across goroutines and never a sync.Pool — so reuse is fully
// deterministic: get() returns either a brand-new state or a recycled one
// reset to exactly the fresh-state contents. recycleAll() returns every
// state ever created to the free list; callers must copy any member slice
// they intend to keep before invoking it.
type arena struct {
	g       *Graph
	n       int // the node count every state is sized for; g may be resized since
	all     []*state
	free    []*state
	scratch *graph.Bitset // intersection-phase scratch (lazily allocated)
}

func newArena(g *Graph) *arena { return &arena{g: g, n: g.n} }

func (a *arena) get() *state {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		s.reset()
		return s
	}
	s := &state{
		g:       a.g,
		ar:      a,
		inC:     graph.NewBitset(a.n),
		cand:    graph.NewBitset(a.n),
		miss1:   graph.NewBitset(a.n),
		dead:    graph.NewBitset(a.n),
		sum:     make([]int, a.n),
		scoreUB: make([]int, a.n),
	}
	if len(a.g.cluster) > 0 {
		s.byCluster = make([][]int, a.g.nClusters)
	}
	s.cand.Fill()
	a.all = append(a.all, s)
	return s
}

// put returns one state to the free list; the caller must drop its reference.
func (a *arena) put(s *state) { a.free = append(a.free, s) }

// recycleAll makes every state created so far available for reuse.
func (a *arena) recycleAll() { a.free = append(a.free[:0], a.all...) }

// state tracks one growing clique with incremental weight sums.
type state struct {
	g         *Graph
	ar        *arena
	members   []int
	wMembers  []int   // members with outgoing weights (the only growable sums)
	byCluster [][]int // members per weight-interaction class (when installed)
	inC       *graph.Bitset
	cand      *graph.Bitset // nodes adjacent to every member
	miss1     *graph.Bitset // non-members adjacent to every member but one
	dead      *graph.Bitset // grow's scratch: candidates proven weight-infeasible
	sum       []int         // node -> outgoing weight into the clique (members only)
	scoreUB   []int         // grow's scratch: stale upper bound on |adj(u) ∩ cand|
}

// reset restores the fresh-state invariants. Only member-touched entries of
// sum/byCluster are dirty, so the cost is O(|members| + words), not O(n).
func (s *state) reset() {
	for _, m := range s.members {
		s.sum[m] = 0
		if s.byCluster != nil {
			cl := s.g.cluster[m]
			s.byCluster[cl] = s.byCluster[cl][:0]
		}
	}
	s.members = s.members[:0]
	s.wMembers = s.wMembers[:0]
	s.inC.Reset()
	s.cand.Fill()
	s.miss1.Reset()
}

// canAdd reports whether u keeps the clique feasible. When weight clusters
// are installed (REGIMap's PEs), only same-cluster members interact with u,
// so the check is O(ops per PE); otherwise only the weighted members can
// exceed their budget.
func (s *state) canAdd(u int) bool {
	return !s.inC.Has(u) && s.cand.Has(u) && s.fits(u)
}

// fits is canAdd's weight walk, for a node u of the candidate set.
func (s *state) fits(u int) bool {
	if s.g.cap < 0 || !s.g.anyW {
		return true // unconstrained, or no weight anywhere: always feasible
	}
	uSum := s.g.base[u]
	if s.byCluster != nil {
		for _, v := range s.byCluster[s.g.cluster[u]] {
			if s.sum[v]+s.g.Weight(v, u) > s.g.cap {
				return false
			}
			if s.g.outW[u] {
				uSum += s.g.Weight(u, v)
			}
		}
		return uSum <= s.g.cap
	}
	for _, v := range s.wMembers {
		if s.sum[v]+s.g.Weight(v, u) > s.g.cap {
			return false
		}
	}
	if s.g.outW[u] {
		for _, v := range s.members {
			uSum += s.g.Weight(u, v)
		}
	}
	return uSum <= s.g.cap
}

func (s *state) add(u int) {
	s.sum[u] += s.g.base[u]
	if s.byCluster != nil {
		cl := s.g.cluster[u]
		for _, v := range s.byCluster[cl] {
			s.sum[v] += s.g.Weight(v, u)
			if s.g.outW[u] {
				s.sum[u] += s.g.Weight(u, v)
			}
		}
		s.byCluster[cl] = append(s.byCluster[cl], u)
	} else {
		for _, v := range s.wMembers {
			s.sum[v] += s.g.Weight(v, u)
		}
		if s.g.outW[u] {
			for _, v := range s.members {
				s.sum[u] += s.g.Weight(u, v)
			}
		}
	}
	if s.g.outW[u] {
		s.wMembers = append(s.wMembers, u)
	}
	s.members = append(s.members, u)
	s.inC.Set(u)
	// A node u is not adjacent to moves one miss up: candidates outside
	// adj(u) now miss exactly u, one-miss nodes outside it drop out. u itself
	// spills out of cand, but it is a member now.
	s.cand.AndSpill(s.g.adj[u], s.miss1)
	s.miss1.Clear(u)
}

// fitsSwap is canAdd(w) against the clique C - x + y without building it,
// for swapInGroup's trials: the member sums lose x's weight and gain y's
// (y = -1 adds nobody), and ySum is y's own sum in C - x, as fitsSwap(y, x,
// -1, 0) returned it. Adjacency is the caller's job. C - x itself needs no
// check: weights are non-negative, so feasibility is hereditary and every
// member C keeps still fits.
func (s *state) fitsSwap(w, x, y, ySum int) (wSum int, ok bool) {
	g := s.g
	if g.cap < 0 || !g.anyW {
		return 0, true
	}
	wSum = g.base[w]
	if s.byCluster != nil {
		// Only same-cluster members carry weight to or from w.
		cw := g.cluster[w]
		dropX := g.cluster[x] == cw
		addY := y >= 0 && g.cluster[y] == cw
		for _, v := range s.byCluster[cw] {
			if v == x {
				continue
			}
			vSum := s.sum[v] + g.Weight(v, w)
			if dropX {
				vSum -= g.Weight(v, x)
			}
			if addY {
				vSum += g.Weight(v, y)
			}
			if vSum > g.cap {
				return 0, false
			}
			if g.outW[w] {
				wSum += g.Weight(w, v)
			}
		}
		if addY {
			if ySum+g.Weight(y, w) > g.cap {
				return 0, false
			}
			if g.outW[w] {
				wSum += g.Weight(w, y)
			}
		}
		return wSum, wSum <= g.cap
	}
	for _, v := range s.wMembers {
		if v == x {
			continue
		}
		vSum := s.sum[v] - g.Weight(v, x) + g.Weight(v, w)
		if y >= 0 {
			vSum += g.Weight(v, y)
		}
		if vSum > g.cap {
			return 0, false
		}
	}
	if y >= 0 && g.outW[y] && ySum+g.Weight(y, w) > g.cap {
		return 0, false
	}
	if g.outW[w] {
		for _, v := range s.members {
			if v != x {
				wSum += g.Weight(w, v)
			}
		}
		if y >= 0 {
			wSum += g.Weight(w, y)
		}
	}
	return wSum, wSum <= g.cap
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
// Weight infeasibility is hereditary — the member sums only grow while the
// clique grows — so a candidate that fails canAdd once is marked dead and
// never re-checked, skipping the cluster weight walk on every later scan.
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
	// SeedOrder, when it holds a permutation of every node id, replaces
	// Find's internal degree sort (it must be Graph.DegreeOrder's order for
	// results to match the default). REGIMap computes it once per
	// compatibility graph and reuses it across clique.Find calls.
	SeedOrder []int
	// Arenas, when non-nil, supplies pooled search arenas reused across
	// calls and requests (regimapd installs one per process). Arenas are
	// fully wiped on reuse, so results are unaffected.
	Arenas *Pool
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
	// large clique), id as tie-break.
	order := opts.SeedOrder
	if len(order) != g.n {
		order = g.DegreeOrder()
	}
	if len(order) > maxSeeds {
		order = order[:maxSeeds]
	}

	ar := opts.Arenas.acquire(g)
	defer opts.Arenas.release(ar)
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
			// The candidate violates the weight budget even after the
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
		ar.scratch = graph.NewBitset(ar.n)
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
