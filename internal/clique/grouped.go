package clique

import (
	"math/bits"
	"sort"

	"regimap/internal/graph"
)

// FindGrouped searches for a feasible clique containing exactly one node per
// group. Groups are REGIMap's operations and a group's nodes its candidate
// (operation, PE) bindings; since same-operation bindings are mutually
// incompatible, any clique holds at most one node per group, and a clique of
// one-per-group is a complete placement.
//
// The search is constructive and deterministic: groups are placed most-
// constrained first (smallest maximum candidate degree), each taking the
// candidate with the most compatibility arcs into the remaining candidate
// set; groups that could not be placed are promoted to the front of the next
// round — the same learn-from-failure flavour as the mapper's outer loop.
// It returns the best clique found across rounds (possibly smaller than the
// group count).
func FindGrouped(g *Graph, groups [][]int, opts Options) (best []int) {
	rounds := opts.GroupRounds
	if rounds <= 0 {
		rounds = DefaultGroupRounds
	}

	sp := opts.Trace.Start("clique.grouped")
	roundsRun, lastFailed := 0, 0
	defer func() {
		sp.Field("groups", int64(len(groups)))
		sp.Field("rounds", int64(roundsRun))
		sp.Field("failed", int64(lastFailed))
		sp.Field("best", int64(len(best)))
		sp.End()
	}()

	var order []int
	if len(opts.GroupOrder) == len(groups) {
		order = append([]int(nil), opts.GroupOrder...)
	} else {
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

	groupOf := make([]int, g.n)
	for gi, cands := range groups {
		for _, u := range cands {
			groupOf[u] = gi
		}
	}
	fc := newForwardChecker(g.n, groups)
	var sw swapTrial

	ar := opts.Arenas.acquire(g)
	defer opts.Arenas.release(ar)
	pending := make([]bool, len(groups))
	inFailed := make([]bool, len(groups))
	for round := 0; round < rounds; round++ {
		roundsRun++
		s := ar.get()
		var failed []int
		for _, gi := range order {
			pending[gi] = true
		}
		for oi, gi := range order {
			pending[gi] = false
			pick := pickCandidate(g, s, groups, order[oi+1:], pending, gi, fc)
			if pick == -1 {
				if repaired := swapInGroup(g, s, groups, groupOf, gi, &sw); repaired != nil {
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
				if repaired := swapInGroup(g, s, groups, groupOf, gi, &sw); repaired != nil {
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
// weights by fitsSwap, its candidate set as (C0 ∪ (C1 \ adj(x))) ∩ adj(u)
// for the candidate set C0. Only the swap returned becomes a state, rebuilt
// in the member order evicting x and adding u and the re-pick leaves.
func swapInGroup(g *Graph, s *state, groups [][]int, groupOf []int, gi int, sw *swapTrial) *state {
	for _, u := range groups[gi] {
		if !s.miss1.Has(u) {
			continue
		}
		x := s.blocker(u)
		uSum, ok := s.fitsSwap(u, x, -1, 0)
		if !ok {
			continue
		}
		// Re-picks must be adjacent to every member of C - x + u: inside
		// adj(u), and either candidates already or blocked by x alone.
		adjU, adjX := g.adj[u], g.adj[x]
		sw.repicks = sw.repicks[:0]
		for _, w := range groups[groupOf[x]] {
			if !adjU.Has(w) || !(s.cand.Has(w) || s.miss1.Has(w) && !adjX.Has(w)) {
				continue
			}
			if _, ok := s.fitsSwap(w, x, u, uSum); ok {
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
			sw.cand.AndNot(adjX)
			sw.cand.Or(s.cand)
			sw.cand.And(adjU)
			best := -1
			for _, w := range sw.repicks {
				if score := g.adj[w].IntersectCount(sw.cand); score > best {
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
	repicks []int         // x's group members that fit C - x + u
}

// maxLookahead caps the pending groups pickCandidate examines. Forward
// checking scales with |group| x pending x words; on big arrays the nearest
// groups in the order are the ones the choice constrains most.
const maxLookahead = 24

// forwardChecker is pickCandidate's reusable working set. A pending group's
// verdict for a candidate u — how many of its live candidates are adjacent
// to u, capped at 2 — is computed for every candidate of the picked group
// at once, by walking the pending group's live candidates v and folding
// adj(v) into two bit-slices over the picked group's word span: one holds
// the candidates with at least one live neighbour, two those with at least
// two. Adjacency is symmetric, so u ∈ adj(v) exactly when v ∈ adj(u).
//
// A group whose verdict is the same for every feasible candidate — all dead,
// all exactly one, or all at least two — adds the same count to every
// candidate's dead or tight tally, which never moves the argmin, so it is
// dropped; the walk stops as soon as two covers every feasible candidate.
// The slices of the groups that remain answer each candidate's (dead, tight)
// with two bit probes.
//
// A group's candidate ids are clustered, so each group mask spans a few
// words of the n-bit width. The spans are computed once per search.
type forwardChecker struct {
	masks    []*graph.Bitset // each group's candidate mask
	spanLo   []int           // word span [spanLo, spanHi) of each group mask
	spanHi   []int
	feas     []uint64 // feasible candidates of the picked group, over its span
	one, two []uint64 // kept groups' bit-slices, maxSpan words per group
	nKept    int
	cands    []int // feasible candidates of the group being picked
	cDead    []int // their verdicts, parallel to cands
	cTght    []int
}

func newForwardChecker(n int, groups [][]int) *forwardChecker {
	fc := &forwardChecker{
		masks:  graph.NewBitsetSlab(n, len(groups)),
		spanLo: make([]int, len(groups)),
		spanHi: make([]int, len(groups)),
	}
	maxSpan := 0
	for gi, cands := range groups {
		for _, u := range cands {
			fc.masks[gi].Set(u)
		}
		fc.spanLo[gi], fc.spanHi[gi] = fc.masks[gi].WordBounds()
		maxSpan = max(maxSpan, fc.spanHi[gi]-fc.spanLo[gi])
	}
	fc.feas = make([]uint64, maxSpan)
	fc.one = make([]uint64, maxLookahead*maxSpan)
	fc.two = make([]uint64, maxLookahead*maxSpan)
	return fc
}

// pickCandidate chooses group gi's binding by CSP-style forward checking:
// among feasible candidates, prefer the one that leaves every still-pending
// group at least one (and ideally several) live candidates — the
// least-constraining-value rule — with overall compatibility as the final
// tie-break. It returns -1 when no candidate is feasible.
func pickCandidate(g *Graph, s *state, groups [][]int, rest []int, pending []bool, gi int, fc *forwardChecker) int {
	lo, hi := fc.spanLo[gi], fc.spanHi[gi]
	nw := hi - lo
	feas := fc.feas[:nw]
	clear(feas)
	fc.cands = fc.cands[:0]
	for _, u := range groups[gi] {
		if s.canAdd(u) {
			fc.cands = append(fc.cands, u)
			feas[u>>6-lo] |= 1 << uint(u&63)
		}
	}
	switch len(fc.cands) {
	case 0:
		return -1
	case 1:
		return fc.cands[0] // every verdict is uniform
	}

	fc.nKept = 0
	cand := s.cand.Words()
	looked := 0
	for _, gj := range rest {
		if !pending[gj] {
			continue
		}
		if looked++; looked > maxLookahead {
			break
		}
		if fc.fold(g, gj, cand, lo, fc.one[fc.nKept*nw:(fc.nKept+1)*nw], fc.two[fc.nKept*nw:(fc.nKept+1)*nw]) {
			fc.nKept++
		}
	}

	// (dead, tight) for each feasible candidate; the compatibility score is
	// only the final tie-break, so it is deferred to the candidates still
	// tied after this pass (usually one or two) instead of paying a
	// full-width popcount for every candidate.
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
	best, bestScore := -1, -1
	for i, u := range fc.cands {
		if fc.cDead[i] != minDead || fc.cTght[i] != minTight {
			continue
		}
		if score := g.adj[u].IntersectCount(s.cand); score > bestScore {
			best, bestScore = u, score
		}
	}
	return best
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
	mask := fc.masks[gj].Words()
	for w := fc.spanLo[gj]; w < fc.spanHi[gj]; w++ {
		for live := mask[w] & cand[w]; live != 0; live &= live - 1 {
			v := w<<6 | bits.TrailingZeros64(live)
			covered := true
			for k, a := range g.adj[v].Words()[lo : lo+len(one)] {
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
