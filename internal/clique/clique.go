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
// The engine is allocation-free on its hot path: every search runs in its
// graph's one arena of clique states and bitsets, reuses the states across
// seeds, swap-repair rounds and grouped swaps, and leaves them to the
// graph's next search (see DESIGN.md's hot-path memory model).
// Reuse is deterministic — states are fully reset on reuse, so results are
// byte-identical to fresh allocation (enforced by the reference property
// tests in reference_test.go).
package clique

import (
	"math/bits"
	"sort"

	"regimap/internal/graph"
	"regimap/internal/obs"
)

// Graph is a compatibility graph whose nodes carry register demand in the
// register file of their cluster. Adjacency is symmetric. A graph owns one
// search arena, so it serves one search at a time.
//
// Each adjacency row stores only its explicit words (see Layout). A dense
// graph stores every word; a graph laid out from a group index stores, for
// a node of group g, every word inside the spans of g and of the groups
// constrained with it. Every other word holds only nodes of groups free
// with g, which the index promises are all adjacent to the node, so the
// word reads as all ones and is not stored.
type Graph struct {
	n        int
	wpr      int        // words of a full row
	rows     [][]uint64 // each node's explicit words, in ascending word order
	lay      []int32    // each node's layout (its group; 0 on a dense graph)
	expl     [][]int32  // per layout, its explicit word indices, ascending
	slot     [][]int32  // per layout, each word's position in a row, or -1: implicit
	init     [][]uint64 // per layout, its explicit words' nodes of free groups
	free     []int      // per layout, the nodes in its implicit words
	from     *Groups    // the index the rows were laid out from (nil: dense)
	cluster  []int      // cluster of each node
	demand   []int      // registers each node holds in its cluster's file
	regs     []int      // register file of each cluster
	deg      []int      // cached Degrees (emptied by any adjacency mutation)
	degOrder []int      // cached DegreeOrder (nil after any adjacency mutation)

	rowSlab  []uint64 // rows' storage, kept across Layouts
	initSlab []uint64 // init's storage and Layout's scratch
	laySlab  []int32  // expl's and slot's storage

	ar *arena // the search arena, sized for this node and cluster count
}

// NewGraph returns an empty dense graph of n nodes and the given number of
// clusters. Every node starts in cluster 0 with no demand, and every file
// holds no registers, so the graph is unconstrained until demands are set.
func NewGraph(n, clusters int) *Graph {
	g := &Graph{}
	g.Reset(n, clusters)
	g.Layout(nil)
	return g
}

// Reset makes g a graph of n nodes and the given number of clusters, every
// node in cluster 0 with no demand and every file empty, reusing its
// storage. It lays out no rows: the caller lays them out (Layout) before
// adding edges or searching. The search arena is dropped when the node or
// cluster count changes, since it is sized for both.
func (g *Graph) Reset(n, clusters int) {
	if n != g.n || clusters != len(g.regs) {
		g.ar = nil
	}
	g.n, g.wpr = n, (n+63)/64
	g.rows, g.lay, g.from = g.rows[:0], g.lay[:0], nil
	g.cluster = resize(g.cluster, n)
	g.demand = resize(g.demand, n)
	g.regs = resize(g.regs, clusters)
	g.dropDegrees()
}

// Layout lays out every adjacency row afresh. With a nil index the graph is
// dense and every row empty. With gx, an index of g's node count, a node of
// group g stores only the words inside the span of g and of every group
// gx's relation marks as constrained with it, and starts adjacent to
// exactly the nodes of the groups free with g; every other word holds only
// nodes of such groups and reads as all ones. A word inside such a span is
// stored even when none of the span's group's nodes is in it (a group whose
// ids are not consecutive), so a constrained group's whole span sits
// contiguously in the row, as the grouped search's fold reads it. Edges
// between free groups can be added (a no-op) but not cleared. The relation
// must keep its promise (see Groups) and must not change until the next
// Layout, and FindGrouped then takes gx only. The row storage grows
// geometrically, so an owner that lays one graph out again and again (the
// compat builder, at every Build) stops allocating once it has seen its
// largest layout.
func (g *Graph) Layout(gx *Groups) {
	layouts := 1
	if gx != nil {
		if gx.n != g.n {
			panic("clique: group index built for another graph size")
		}
		layouts = len(gx.lists)
	}
	wpr := g.wpr
	// laySlab holds every layout's slot table, then its explicit word
	// indices; initSlab every layout's starting words, then used, one
	// layout's scratch: each word's nodes of groups constrained with it.
	g.laySlab = grown(g.laySlab, 2*layouts*wpr)
	g.initSlab = grown(g.initSlab, (layouts+1)*wpr)
	g.expl = regrow(g.expl, layouts)
	g.slot = regrow(g.slot, layouts)
	g.init = regrow(g.init, layouts)
	g.free = resize(g.free, layouts)
	used := g.initSlab[layouts*wpr:]
	for l := range layouts {
		// slot first marks the explicit words (0) against the implicit ones
		// (-1), then holds the explicit words' row positions.
		slot := g.laySlab[l*wpr : (l+1)*wpr]
		clear(used)
		if gx == nil {
			clear(slot)
			for w := range used {
				used[w] = ^uint64(0)
			}
		} else {
			for w := range slot {
				slot[w] = -1
			}
			for wi, bw := range gx.rel[l].Words() {
				for ; bw != 0; bw &= bw - 1 {
					h := wi<<6 | bits.TrailingZeros64(bw)
					mask := gx.masks[h].Words()
					for w := gx.spanLo[h]; w < gx.spanHi[h]; w++ {
						slot[w] = 0
						used[w] |= mask[w]
					}
				}
			}
		}
		expl := g.laySlab[(layouts+l)*wpr : (layouts+l+1)*wpr][:0]
		init := g.initSlab[l*wpr : (l+1)*wpr][:0]
		g.free[l] = 0
		for w, u := range used {
			valid := min(64, g.n-w<<6)
			if slot[w] == 0 {
				slot[w] = int32(len(expl))
				expl = append(expl, int32(w))
				init = append(init, ^u&(^uint64(0)>>uint(64-valid)))
			} else {
				g.free[l] += valid
			}
		}
		g.expl[l], g.slot[l], g.init[l] = expl, slot, init
	}
	g.lay = resize(g.lay, g.n)
	if gx != nil {
		for u, gi := range gx.groupOf {
			g.lay[u] = int32(gi)
		}
	}
	total := 0
	for _, l := range g.lay {
		total += len(g.expl[l])
	}
	if total > cap(g.rowSlab) {
		g.rowSlab = make([]uint64, max(total, 2*cap(g.rowSlab)))
	}
	words := g.rowSlab[:total]
	g.rows = regrow(g.rows, g.n)
	for u, l := range g.lay {
		k := len(g.expl[l])
		g.rows[u], words = words[:k:k], words[k:]
		copy(g.rows[u], g.init[l])
	}
	g.from = gx
	g.dropDegrees()
}

// grown returns s with at least n elements, reallocating to at least twice
// its capacity when it is too short; the elements are not cleared.
func grown[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// regrow returns s with n elements, keeping the storage it already holds.
func regrow[T any](s []T, n int) []T {
	if n > cap(s) {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
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

// explicit returns node u's stored words and their word indices.
func (g *Graph) explicit(u int) (row []uint64, at []int32) {
	return g.rows[u], g.expl[g.lay[u]]
}

// pos returns the position of word w in node u's row, or -1 when the word
// is implicit.
func (g *Graph) pos(u, w int) int32 { return g.slot[g.lay[u]][w] }

// AddEdge marks u and v compatible (symmetric). An edge in an implicit word
// is there already.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("clique: self edge")
	}
	g.checkNode(u)
	g.checkNode(v)
	if p := g.pos(u, v>>6); p >= 0 {
		g.rows[u][p] |= 1 << uint(v&63)
	}
	if p := g.pos(v, u>>6); p >= 0 {
		g.rows[v][p] |= 1 << uint(u&63)
	}
	g.dropDegrees()
}

// Adjacent reports whether u and v are compatible.
func (g *Graph) Adjacent(u, v int) bool {
	g.checkNode(v)
	return g.row(u).has(v)
}

// adjRow is one node's stored words with its layout's slot table, for
// probing one row many times.
type adjRow struct {
	words []uint64
	slot  []int32
}

func (g *Graph) row(u int) adjRow { return adjRow{g.rows[u], g.slot[g.lay[u]]} }

// has reports whether v is in the row.
func (r adjRow) has(v int) bool { return r.word(v>>6)&(1<<uint(v&63)) != 0 }

// word returns the row's word w: all ones when it is implicit, since such a
// word holds only neighbours.
func (r adjRow) word(w int) uint64 {
	if p := r.slot[w]; p >= 0 {
		return r.words[p]
	}
	return ^uint64(0)
}

func (g *Graph) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic("clique: node out of range")
	}
}

// OrAdjacencyAt bulk-marks u compatible with the members of scattered
// words: it ORs words[k] into u's word at[k], covering node ids 64*at[k]
// onwards; an implicit word is all ones already. Callers are responsible
// for symmetry (apply the mirrored words to the other side) and for words
// that exclude u itself; the compat builder passes the words its partner
// operations' candidates touch.
func (g *Graph) OrAdjacencyAt(u int, at []int, words []uint64) {
	row, slot := g.rows[u], g.slot[g.lay[u]]
	for k, w := range words {
		if p := slot[at[k]]; p >= 0 {
			row[p] |= w
		}
	}
	g.dropDegrees()
}

// ClearEdge removes a compatibility edge (both directions). It panics on an
// edge between free groups, which the layout's relation promised.
func (g *Graph) ClearEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	if g.from != nil && !g.from.Constrained(int(g.lay[u]), int(g.lay[v])) {
		panic("clique: clearing an edge between free groups")
	}
	g.rows[u][g.pos(u, v>>6)] &^= 1 << uint(v&63)
	g.rows[v][g.pos(v, u>>6)] &^= 1 << uint(u&63)
	g.dropDegrees()
}

// dropDegrees invalidates the degree caches after an adjacency mutation,
// keeping the degree vector's storage for the next sweep.
func (g *Graph) dropDegrees() {
	g.deg = g.deg[:0]
	g.degOrder = nil
}

// Degrees returns every node's degree (the number of nodes compatible with
// it), computed in one popcount sweep over the explicit words plus the
// nodes of the implicit ones, and cached until the next adjacency mutation;
// Degree, DegreeOrder and the grouped search's default order all read this
// one vector. Callers must not modify it.
func (g *Graph) Degrees() []int {
	if len(g.deg) != g.n {
		if cap(g.deg) < g.n {
			g.deg = make([]int, g.n)
		}
		g.deg = g.deg[:g.n]
		for u, row := range g.rows {
			d := g.free[g.lay[u]]
			for _, w := range row {
				d += bits.OnesCount64(w)
			}
			g.deg[u] = d
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

// common returns |adj(u) ∩ set| for a set of count members: count less the
// members adj(u) lacks, which lie in u's explicit words only.
func (g *Graph) common(u int, set *graph.Bitset, count int) int {
	row, at := g.explicit(u)
	sw := set.Words()
	for k, w := range at {
		count -= bits.OnesCount64(sw[w] &^ row[k])
	}
	return count
}

// IsFeasibleClique verifies that members form a clique and that no
// cluster's load exceeds its register file, counting loads from scratch.
// Exposed so callers (and property tests) can independently audit results.
func (g *Graph) IsFeasibleClique(members []int) bool {
	load := make([]int, len(g.regs))
	for i, u := range members {
		for j, v := range members {
			if i != j && !g.Adjacent(u, v) {
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

// arena pools clique states for its graph's searches, which run one at a
// time, so reuse is fully deterministic: get() returns either a brand-new
// state or a recycled one reset to exactly the fresh-state contents.
// recycleAll() returns every state ever created to the free list; callers
// must copy any member slice they intend to keep before invoking it.
type arena struct {
	g       *Graph
	all     []*state
	free    []*state
	scratch *graph.Bitset // intersection-phase scratch (lazily allocated)
}

// acquire returns g's search arena with every state free, making it on
// first use.
func (g *Graph) acquire() *arena {
	if g.ar == nil {
		g.ar = &arena{g: g}
	}
	g.ar.recycleAll()
	return g.ar
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
	// spills out of cand, but it is a member now. Only u's explicit words
	// can hold a node it is not adjacent to.
	row, at := s.g.explicit(u)
	s.cand.AndSpillAt(at, row, s.miss1)
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
		count := s.cand.Count()
		s.cand.ForEach(func(u int) bool {
			if s.dead.Has(u) || s.scoreUB[u] <= bestScore {
				return true
			}
			if !s.canAdd(u) {
				s.dead.Set(u)
				return true
			}
			sc := s.g.common(u, s.cand, count)
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

// Find's search budgets: greedy starts, then clique-pair intersections
// re-seeded from the cliques those starts found.
const (
	maxSeeds         = 16
	maxIntersections = 32
)

// DefaultGroupRounds is FindGrouped's promote-and-retry round count when
// Options.GroupRounds is not positive. core.Map's Explore scouts widen it.
const DefaultGroupRounds = 4

// Options tunes the heuristic search; the zero value is the paper's
// configuration.
type Options struct {
	// GroupRounds bounds FindGrouped's promote-and-retry rounds (<=0:
	// DefaultGroupRounds).
	GroupRounds int
	// DisableSwap turns off Find's one-out swap repair (ablation).
	// FindGrouped's in-group swap does not read it.
	DisableSwap bool
	// DisableIntersect turns off Find's intersection re-seeding
	// (ablation). FindGrouped does not read it.
	DisableIntersect bool
}

// Find runs the paper's constructive heuristic: greedy growth from many
// seeds, one-out swap repair, then pairwise intersection re-seeding. It
// returns the best feasible clique found (possibly smaller than target) —
// never nil, possibly empty. tr, when non-nil, receives one clique.find
// event; the nil default costs nothing (see internal/obs).
func Find(g *Graph, target int, opts Options, tr *obs.Tracer) (best []int) {
	if target > g.n {
		target = g.n
	}

	sp := tr.Start("clique.find")
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
		for i := 0; i < len(found) && pairs < maxIntersections; i++ {
			for j := i + 1; j < len(found) && pairs < maxIntersections; j++ {
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
// Such a member lies in u's explicit words, and there is one at most.
func (s *state) blocker(u int) int {
	row, at := s.g.explicit(u)
	in := s.inC.Words()
	for k, w := range at {
		if miss := in[w] &^ row[k]; miss != 0 {
			return int(w)<<6 | bits.TrailingZeros64(miss)
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
