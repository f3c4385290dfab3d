package clique

import (
	"math/bits"
	"slices"
	"sort"

	"regimap/internal/graph"
	"regimap/internal/obs"
)

// Groups indexes FindGrouped's groups, a partition of the nodes of one
// graph: each group's candidate list, its mask and word span, the group of
// every node, and the constraint relation between groups. Its owner builds
// it once per graph shape (the compat builder, once per Reset) and every
// search reads it without writing it, so every placement pass of one
// attempt shares one index; each search keeps only its own scratch.
//
// The relation holds one bit per group pair. A set bit promises nothing. A
// clear bit promises that the two groups are complete bipartite in the
// graph: every node of one is adjacent to every node of the other. The
// search then knows the outcome of work on that pair without doing it (see
// pickCandidate), and a graph laid out from the index stores none of the
// pair's words (see Graph.Layout). Every pair starts constrained, and a
// group stays constrained with itself.
type Groups struct {
	n       int
	lists   [][]int
	masks   []*graph.Bitset // each group's candidate mask
	spanLo  []int           // word span [spanLo, spanHi) of each mask
	spanHi  []int
	maxSpan int
	maxLen  int             // the largest group's size
	groupOf []int           // group of each node
	rel     []*graph.Bitset // constraint relation, one row per group

	maskSlab, relSlab graph.Slab // storage of masks and rel, kept across Reset
}

// NewGroups indexes lists, groups that partition the nodes of an n-node
// graph, with every group pair constrained.
func NewGroups(n int, lists [][]int) *Groups {
	gx := &Groups{}
	gx.Reset(n, lists)
	return gx
}

// Reset re-indexes gx for lists, groups that partition the nodes of an
// n-node graph, reusing its storage; it panics when a node is in no group.
// Every group pair is constrained again. The index keeps lists itself, so
// the caller leaves them unchanged until the next Reset.
func (gx *Groups) Reset(n int, lists [][]int) {
	k := len(lists)
	gx.n, gx.lists, gx.maxSpan, gx.maxLen = n, lists, 0, 0
	gx.masks = gx.maskSlab.Carve(n, k)
	gx.rel = gx.relSlab.Carve(k, k)
	gx.spanLo = resize(gx.spanLo, k)
	gx.spanHi = resize(gx.spanHi, k)
	gx.groupOf = resize(gx.groupOf, n)
	for u := range gx.groupOf {
		gx.groupOf[u] = -1
	}
	for gi, cands := range lists {
		m := gx.masks[gi]
		m.Reset()
		for _, u := range cands {
			m.Set(u)
			gx.groupOf[u] = gi
		}
		gx.spanLo[gi], gx.spanHi[gi] = m.WordBounds()
		gx.maxSpan = max(gx.maxSpan, gx.spanHi[gi]-gx.spanLo[gi])
		gx.maxLen = max(gx.maxLen, len(cands))
		gx.rel[gi].Fill()
	}
	if slices.Contains(gx.groupOf, -1) {
		panic("clique: groups must partition the nodes")
	}
}

// Constrain records whether groups gi and gj are constrained, in both
// directions. Passing false makes the promise of a clear bit (see Groups);
// a group stays constrained with itself.
func (gx *Groups) Constrain(gi, gj int, constrained bool) {
	if gi == gj {
		return
	}
	if constrained {
		gx.rel[gi].Set(gj)
		gx.rel[gj].Set(gi)
	} else {
		gx.rel[gi].Clear(gj)
		gx.rel[gj].Clear(gi)
	}
}

// Constrained reports whether groups gi and gj are constrained.
func (gx *Groups) Constrained(gi, gj int) bool { return gx.rel[gi].Has(gj) }

// Mask returns group gi's candidate mask. Callers must not modify it.
func (gx *Groups) Mask(gi int) *graph.Bitset { return gx.masks[gi] }

// Span returns the half-open word span [lo, hi) of group gi's mask.
func (gx *Groups) Span(gi int) (lo, hi int) { return gx.spanLo[gi], gx.spanHi[gi] }

// FindGrouped searches for a feasible clique containing exactly one node per
// group of gx, an index built for g's node count. Groups are REGIMap's
// operations and a group's nodes its candidate (operation, PE) bindings;
// since same-operation bindings are mutually incompatible, any clique holds
// at most one node per group, and a clique of one-per-group is a complete
// placement.
//
// The search is constructive and deterministic: groups are placed most-
// constrained first (smallest maximum candidate degree), each taking the
// candidate with the most compatibility arcs into the remaining candidate
// set; groups that could not be placed are promoted to the front of the next
// round — the same learn-from-failure flavour as the mapper's outer loop.
// It returns the best clique found across rounds (possibly smaller than the
// group count). As long as gx's relation keeps its promise (see Groups),
// the result does not depend on it, only the work spent reaching it.
//
// order, when it lists every group, fixes the initial placement order
// (REGIMap passes schedule order so operations land next to their
// already-placed producers) and is only read; otherwise the order is
// most-constrained-first. tr, when non-nil, receives one clique.grouped
// event; the nil default costs nothing (see internal/obs).
func FindGrouped(g *Graph, gx *Groups, order []int, opts Options, tr *obs.Tracer) (best []int) {
	if gx.n != g.n {
		panic("clique: group index built for another graph size")
	}
	if g.from != nil && g.from != gx {
		panic("clique: graph laid out from another group index")
	}
	groups := gx.lists
	rounds := opts.GroupRounds
	if rounds <= 0 {
		rounds = DefaultGroupRounds
	}

	fc := newForwardChecker(gx)
	sp := tr.Start("clique.grouped")
	roundsRun, lastFailed := 0, 0
	defer func() {
		sp.Field("groups", int64(len(groups)))
		sp.Field("rounds", int64(roundsRun))
		sp.Field("failed", int64(lastFailed))
		sp.Field("best", int64(len(best)))
		sp.Field("folds", int64(fc.folds))
		sp.Field("free", int64(fc.free))
		sp.End()
	}()

	if len(order) != len(groups) {
		// Default order: most-constrained groups first. A group's freedom is
		// the best-connected candidate it has; ties broken by group index
		// for determinism.
		freedom := make([]int, len(groups))
		deg := g.Degrees()
		for gi, cands := range groups {
			f := -1
			for _, u := range cands {
				if deg[u] > f {
					f = deg[u]
				}
			}
			freedom[gi] = f
		}
		order = make([]int, len(groups))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			if freedom[order[i]] != freedom[order[j]] {
				return freedom[order[i]] < freedom[order[j]]
			}
			return order[i] < order[j]
		})
	}

	var sw swapTrial
	ar := g.acquire()
	flags := make([]bool, 2*len(groups))
	pending, inFailed := flags[:len(groups)], flags[len(groups):]
	for round := 0; round < rounds; round++ {
		roundsRun++
		s := ar.get()
		var failed []int
		for _, gi := range order {
			pending[gi] = true
		}
		for oi, gi := range order {
			pending[gi] = false
			pick := pickCandidate(g, s, order[oi+1:], pending, gi, fc)
			if pick == -1 {
				if repaired := swapInGroup(g, s, gx, gi, &sw); repaired != nil {
					ar.put(s)
					s = repaired
					continue
				}
				failed = append(failed, gi)
				continue
			}
			s.add(pick)
		}
		// Repair phase: the one-out swap often only becomes possible after
		// the rest of the clique exists, so retry every failed group against
		// the final state until a pass makes no progress.
		for iter := 0; iter < 2*len(failed)+2 && len(failed) > 0; iter++ {
			progress := false
			still := failed[:0]
			for _, gi := range failed {
				if repaired := swapInGroup(g, s, gx, gi, &sw); repaired != nil {
					ar.put(s)
					s = repaired
					progress = true
				} else {
					still = append(still, gi)
				}
			}
			failed = still
			if !progress {
				break
			}
		}
		if len(s.members) > len(best) {
			best = append([]int(nil), s.members...)
		}
		lastFailed = len(failed)
		if len(failed) == 0 {
			return best
		}
		// Promote the failed groups; keep the rest in their previous order.
		next := make([]int, 0, len(order))
		next = append(next, failed...)
		for _, gi := range failed {
			inFailed[gi] = true
		}
		for _, gi := range order {
			if !inFailed[gi] {
				next = append(next, gi)
			}
		}
		for _, gi := range failed {
			inFailed[gi] = false
		}
		order = next
		ar.recycleAll()
	}
	return best
}

// swapInGroup is the grouped variant of the paper's one-out repair: when no
// candidate of group gi joins the clique, look for a candidate u blocked by
// exactly one member x; evict x, admit u, and re-place x's group on another
// of its candidates. It returns the repaired state, or nil.
//
// The candidates blocked by exactly one member are the group's share of the
// one-miss set C1, and a trial C - x + u is judged without building it: its
// register loads by fitsSwap, its candidate set as
// (C0 ∪ (C1 \ adj(x))) ∩ adj(u) for the candidate set C0. Only the swap
// returned becomes a state, rebuilt in the member order evicting x and
// adding u and the re-pick leaves.
func swapInGroup(g *Graph, s *state, gx *Groups, gi int, sw *swapTrial) *state {
	for _, u := range gx.lists[gi] {
		if !s.miss1.Has(u) {
			continue
		}
		x := s.blocker(u)
		if !s.fitsSwap(u, x, -1) {
			continue
		}
		// Re-picks must be adjacent to every member of C - x + u: inside
		// adj(u), and either candidates already or blocked by x alone. The
		// test runs a word at a time over x's group's span.
		adjU, adjX := g.row(u), g.row(x)
		xg := gx.groupOf[x]
		lo, hi := gx.spanLo[xg], gx.spanHi[xg]
		mask, cand, miss := gx.masks[xg].Words(), s.cand.Words(), s.miss1.Words()
		if sw.ok == nil {
			sw.ok = make([]uint64, 0, gx.maxSpan)
		}
		sw.ok = sw.ok[:0]
		for w := lo; w < hi; w++ {
			sw.ok = append(sw.ok, mask[w]&adjU.word(w)&(cand[w]|miss[w]&^adjX.word(w)))
		}
		sw.repicks = sw.repicks[:0]
		for _, w := range gx.lists[xg] {
			if sw.ok[w>>6-lo]&(1<<uint(w&63)) != 0 && s.fitsSwap(w, x, u) {
				sw.repicks = append(sw.repicks, w)
			}
		}
		if len(sw.repicks) == 0 {
			continue
		}
		repick := sw.repicks[0]
		if len(sw.repicks) > 1 {
			// Rank by arcs into the trial's candidate set, the first maximum
			// in group order winning.
			if sw.cand == nil {
				sw.cand = graph.NewBitset(g.n)
			}
			sw.cand.CopyFrom(s.miss1)
			row, at := g.explicit(x)
			sw.cand.AndNotAt(at, row)
			sw.cand.Or(s.cand)
			row, at = g.explicit(u)
			sw.cand.AndAt(at, row)
			best, count := -1, sw.cand.Count()
			for _, w := range sw.repicks {
				if score := g.common(w, sw.cand, count); score > best {
					repick, best = w, score
				}
			}
		}
		t := s.ar.get()
		for _, m := range s.members {
			if m != x {
				t.add(m)
			}
		}
		t.add(u)
		t.add(repick)
		return t
	}
	return nil
}

// swapTrial is swapInGroup's reusable working set.
type swapTrial struct {
	cand    *graph.Bitset // candidate set of C - x + u (allocated on first use)
	ok      []uint64      // x's group members adjacent to C - x + u, over its span
	repicks []int         // those that fit C - x + u
}

// maxLookahead caps the pending groups pickCandidate examines. Forward
// checking scales with |group| x pending x words; on big arrays the nearest
// groups in the order are the ones the choice constrains most.
const maxLookahead = 24

// forwardChecker is pickCandidate's working set, one per search; the group
// index it reads is shared. A pending group's verdict for a candidate u —
// how many of its live candidates are adjacent to u, capped at 2 — is
// computed for every candidate of the picked group at once, by walking the
// pending group's live candidates v and folding adj(v) into two bit-slices
// over the picked group's word span: one holds the candidates with at least
// one live neighbour, two those with at least two. Adjacency is symmetric,
// so u ∈ adj(v) exactly when v ∈ adj(u).
//
// A group whose verdict is the same for every feasible candidate — all dead,
// all exactly one, or all at least two — adds the same count to every
// candidate's dead or tight tally, which never moves the argmin, so it is
// dropped; the walk stops as soon as two covers every feasible candidate.
// A group free with the picked one (see Groups) is such a group: every
// candidate sees all of its live candidates. It is dropped without a fold.
// The slices of the groups that remain answer each candidate's (dead,
// tight) with two bit probes.
type forwardChecker struct {
	gx       *Groups
	feas     []uint64 // feasible candidates of the picked group, over its span
	one, two []uint64 // kept groups' bit-slices, maxSpan words per group
	nKept    int
	cands    []int // feasible candidates of the group being picked
	cDead    []int // their verdicts, parallel to cands
	cTght    []int
	tied     []int    // the candidates left for the tie-break
	scope    []uint64 // the tie-break's live nodes, full width; zero between picks
	scopeAt  []int    // the words of scope in use
	scopePos []int32  // their positions in the tied candidates' rows
	scopeVal []uint64 // and their live nodes
	folds    int      // pending groups folded, for the trace
	free     int      // pending groups dropped as free, for the trace
}

func newForwardChecker(gx *Groups) *forwardChecker {
	w, k := gx.maxSpan, gx.maxLen
	words := make([]uint64, (1+2*maxLookahead)*w)
	ints := make([]int, 4*k)
	return &forwardChecker{
		gx:    gx,
		feas:  words[:w],
		one:   words[w : (1+maxLookahead)*w],
		two:   words[(1+maxLookahead)*w:],
		cands: ints[:0:k],
		cDead: ints[k : k : 2*k],
		cTght: ints[2*k : 2*k : 3*k],
		tied:  ints[3*k : 3*k : 4*k],
	}
}

// pickCandidate chooses group gi's binding by CSP-style forward checking:
// among feasible candidates, prefer the one that leaves every still-pending
// group at least one (and ideally several) live candidates — the
// least-constraining-value rule — with overall compatibility as the final
// tie-break. It returns -1 when no candidate is feasible.
func pickCandidate(g *Graph, s *state, rest []int, pending []bool, gi int, fc *forwardChecker) int {
	gx := fc.gx
	lo, hi := gx.spanLo[gi], gx.spanHi[gi]
	nw := hi - lo
	feas := fc.feas[:nw]
	clear(feas)
	fc.cands = fc.cands[:0]
	cand := s.cand.Words()
	for _, u := range gx.lists[gi] {
		// A candidate is no member, so cand membership leaves only the
		// register check of canAdd.
		if bit := uint64(1) << uint(u&63); cand[u>>6]&bit != 0 && s.fits(u) {
			fc.cands = append(fc.cands, u)
			feas[u>>6-lo] |= bit
		}
	}
	switch len(fc.cands) {
	case 0:
		return -1
	case 1:
		return fc.cands[0] // every verdict is uniform
	}

	fc.nKept = 0
	rel := gx.rel[gi]
	looked := 0
	for _, gj := range rest {
		if !pending[gj] {
			continue
		}
		if looked++; looked > maxLookahead {
			break
		}
		if !rel.Has(gj) {
			fc.free++
			continue
		}
		fc.folds++
		if fc.fold(g, gj, cand, lo, fc.one[fc.nKept*nw:(fc.nKept+1)*nw], fc.two[fc.nKept*nw:(fc.nKept+1)*nw]) {
			fc.nKept++
		}
	}

	// (dead, tight) for each feasible candidate; the compatibility score is
	// only the final tie-break, so it is deferred to the candidates still
	// tied after this pass.
	fc.cDead, fc.cTght = fc.cDead[:0], fc.cTght[:0]
	minDead, minTight := 1<<30, 1<<30
	for _, u := range fc.cands {
		k, bit := u>>6-lo, uint64(1)<<uint(u&63)
		dead, tight := 0, 0
		for i := 0; i < fc.nKept; i++ {
			switch {
			case fc.one[i*nw+k]&bit == 0:
				dead++
			case fc.two[i*nw+k]&bit == 0:
				tight++
			}
		}
		fc.cDead = append(fc.cDead, dead)
		fc.cTght = append(fc.cTght, tight)
		if dead < minDead || (dead == minDead && tight < minTight) {
			minDead, minTight = dead, tight
		}
	}
	fc.tied = fc.tied[:0]
	for i, u := range fc.cands {
		if fc.cDead[i] == minDead && fc.cTght[i] == minTight {
			fc.tied = append(fc.tied, u)
		}
	}
	if len(fc.tied) == 1 {
		return fc.tied[0]
	}

	// The score |adj(u) ∩ cand| counts only the live nodes of gi and of the
	// groups constrained with it: every live node of a free group is
	// adjacent to every candidate, so it adds the same to each score and
	// never moves the argmax or its first-in-list tie-break.
	// The scope lies in gi's explicit words (on a graph laid out from gx,
	// the words of gi and of the groups constrained with it), so it is
	// gathered once into the row positions every tied candidate shares.
	fc.scopeTo(gi, cand)
	slot := g.slot[g.lay[fc.tied[0]]] // every tied candidate is in gi
	fc.scopePos, fc.scopeVal = fc.scopePos[:0], fc.scopeVal[:0]
	for _, w := range fc.scopeAt {
		fc.scopePos = append(fc.scopePos, slot[w])
		fc.scopeVal = append(fc.scopeVal, fc.scope[w])
		fc.scope[w] = 0
	}
	best, bestScore := -1, -1
	for _, u := range fc.tied {
		row, score := g.rows[u], 0
		for k, p := range fc.scopePos {
			score += bits.OnesCount64(row[p] & fc.scopeVal[k])
		}
		if score > bestScore {
			best, bestScore = u, score
		}
	}
	return best
}

// scopeTo fills the tie-break scope for group gi: the nodes of cand in gi
// and in the groups constrained with it.
func (fc *forwardChecker) scopeTo(gi int, cand []uint64) {
	gx := fc.gx
	if fc.scope == nil {
		fc.scope = make([]uint64, len(cand))
		fc.scopeAt = make([]int, 0, len(cand))
		fc.scopePos = make([]int32, 0, len(cand))
		fc.scopeVal = make([]uint64, 0, len(cand))
	}
	fc.scopeAt = fc.scopeAt[:0]
	for wi, w := range gx.rel[gi].Words() {
		for ; w != 0; w &= w - 1 {
			gj := wi<<6 | bits.TrailingZeros64(w)
			fc.addScope(gx.masks[gj].Words(), gx.spanLo[gj], gx.spanHi[gj], cand)
		}
	}
}

// addScope ORs mask ∩ cand over the words [lo, hi) into the scope.
func (fc *forwardChecker) addScope(mask []uint64, lo, hi int, cand []uint64) {
	for w := lo; w < hi; w++ {
		if live := mask[w] & cand[w]; live != 0 {
			if fc.scope[w] == 0 {
				fc.scopeAt = append(fc.scopeAt, w)
			}
			fc.scope[w] |= live
		}
	}
}

// fold computes pending group gj's bit-slices over the picked group's span
// [lo, lo+len(one)): it walks gj's live candidates — mask ∩ cand over gj's
// own span — and folds each one's adjacency words into one (at least one
// live neighbour) and two (at least two). It reports whether the verdict
// varies across the feasible candidates; a uniform group is dropped. The
// walk stops as soon as two covers every feasible candidate.
func (fc *forwardChecker) fold(g *Graph, gj int, cand []uint64, lo int, one, two []uint64) bool {
	feas := fc.feas[:len(one)]
	clear(one)
	clear(two)
	mask := fc.gx.masks[gj].Words()
	p := -1 // where the picked group's span starts in gj's rows
	for w := fc.gx.spanLo[gj]; w < fc.gx.spanHi[gj]; w++ {
		for live := mask[w] & cand[w]; live != 0; live &= live - 1 {
			v := w<<6 | bits.TrailingZeros64(live)
			if p < 0 {
				// gj is constrained with the picked group, so the picked
				// group's span is explicit, and contiguous, in the rows of
				// gj, which share one layout.
				p = int(g.pos(v, lo))
			}
			covered := true
			for k, a := range g.rows[v][p : p+len(one)] {
				two[k] |= one[k] & a
				one[k] |= a
				covered = covered && feas[k]&^two[k] == 0
			}
			if covered {
				return false // at least two for every candidate
			}
		}
	}
	anyOne, allOne, anyTwo := false, true, false
	for k, f := range feas {
		anyOne = anyOne || one[k]&f != 0
		allOne = allOne && f&^one[k] == 0
		anyTwo = anyTwo || two[k]&f != 0
	}
	return anyOne && !(allOne && !anyTwo) // not all dead, not all exactly one
}
