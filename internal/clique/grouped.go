package clique

import (
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
		rounds = 4
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
		for gi, cands := range groups {
			f := -1
			for _, u := range cands {
				if d := g.Degree(u); d > f {
					f = d
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
	masks := graph.NewBitsetSlab(g.n, len(groups))
	for gi, cands := range groups {
		for _, u := range cands {
			groupOf[u] = gi
			masks[gi].Set(u)
		}
	}
	fc := newForwardChecker(g.n)

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
			pick := pickCandidate(g, s, groups, masks, order[oi+1:], pending, gi, fc)
			if pick == -1 {
				if repaired := swapInGroup(g, s, groups, groupOf, gi); repaired != nil {
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
				if repaired := swapInGroup(g, s, groups, groupOf, gi); repaired != nil {
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
func swapInGroup(g *Graph, s *state, groups [][]int, groupOf []int, gi int) *state {
	// Candidates of one group typically collide on the same member (they
	// contend for one PE), so the expensive rebuild-without-the-blocker is
	// cached across consecutive candidates sharing a blocker.
	var base *state
	baseBlocker, baseOK := -1, false
	defer func() {
		if base != nil {
			s.ar.put(base)
		}
	}()
	for _, u := range groups[gi] {
		if s.inC.Has(u) {
			continue
		}
		if len(s.members)-g.adj[u].IntersectCount(s.inC) != 1 {
			continue
		}
		blocker := -1
		for _, m := range s.members {
			if !g.adj[u].Has(m) {
				blocker = m
				break
			}
		}
		// Rebuild without the blocker; admit u; re-place the blocker's group.
		if blocker != baseBlocker {
			if base == nil {
				base = s.ar.get()
			} else {
				base.reset()
			}
			baseBlocker, baseOK = blocker, true
			for _, m := range s.members {
				if m == blocker {
					continue
				}
				if !base.canAdd(m) {
					baseOK = false
					break
				}
				base.add(m)
			}
		}
		if !baseOK || !base.canAdd(u) {
			continue
		}
		trial := base.clone()
		trial.add(u)
		gx := groupOf[blocker]
		repick, repickScore := -1, -1
		for _, w := range groups[gx] {
			if !trial.canAdd(w) {
				continue
			}
			if score := g.adj[w].IntersectCount(trial.cand); score > repickScore {
				repick, repickScore = w, score
			}
		}
		if repick == -1 {
			s.ar.put(trial)
			continue
		}
		trial.add(repick)
		return trial
	}
	return nil
}

// maxLookahead caps the pending groups pickCandidate examines. Forward
// checking scales with |group| x pending x words; on big arrays the nearest
// groups in the order are the ones the choice constrains most.
const maxLookahead = 24

// forwardChecker is pickCandidate's reusable working set: the still-live
// candidate mask of each examined pending group, computed once per pick
// instead of once per (candidate, group) pair. Groups whose live mask is
// empty contribute the same dead count to every candidate, which cannot
// change the argmin, so they are dropped outright; single-survivor groups
// reduce to one adjacency probe.
type forwardChecker struct {
	live    []*graph.Bitset // groups with >= 2 survivors: mask(gj) ∩ cand
	lo, hi  []int           // word bounds of each live mask (ids are clustered per group)
	single  []int           // groups with exactly one survivor: that node
	nLive   int
	nSingle int

	cands        []int // feasible candidates of the group being picked
	cDead, cTght []int // their verdicts, parallel to cands
}

func newForwardChecker(n int) *forwardChecker {
	return &forwardChecker{
		live:   graph.NewBitsetSlab(n, maxLookahead),
		lo:     make([]int, maxLookahead),
		hi:     make([]int, maxLookahead),
		single: make([]int, maxLookahead),
	}
}

// pickCandidate chooses group gi's binding by CSP-style forward checking:
// among feasible candidates, prefer the one that leaves every still-pending
// group at least one (and ideally several) live candidates — the
// least-constraining-value rule — with overall compatibility as the final
// tie-break. It returns -1 when no candidate is feasible.
//
// A pending group's live count for candidate u is |mask(gj) ∩ cand ∩ adj(u)|
// capped at 2. The cand intersection is hoisted into the forwardChecker (it
// is the same for every u), leaving one early-exiting word-level pass — or a
// single bit probe — per (candidate, group) pair.
func pickCandidate(g *Graph, s *state, groups [][]int, masks []*graph.Bitset, rest []int, pending []bool, gi int, fc *forwardChecker) int {
	fc.nLive, fc.nSingle = 0, 0
	looked := 0
	for _, gj := range rest {
		if !pending[gj] {
			continue
		}
		if looked++; looked > maxLookahead {
			break
		}
		lm := fc.live[fc.nLive]
		lw, hw := lm.AndInto(masks[gj], s.cand)
		switch lm.IntersectCountUpToIn(lm, 2, lw, hw) {
		case 0:
			// Dead for every candidate alike: a uniform offset never moves
			// the argmin, so the group is dropped from the per-candidate work.
		case 1:
			fc.single[fc.nSingle] = lm.First()
			fc.nSingle++
		default:
			fc.lo[fc.nLive], fc.hi[fc.nLive] = lw, hw
			fc.nLive++
		}
	}
	// First pass: (dead, tight) for each feasible candidate; the compatibility
	// score is only the final tie-break, so it is deferred to the candidates
	// still tied after this pass (usually one or two) instead of paying a
	// full-width popcount for every candidate.
	fc.cands, fc.cDead, fc.cTght = fc.cands[:0], fc.cDead[:0], fc.cTght[:0]
	minDead, minTight := 1<<30, 1<<30
	for _, u := range groups[gi] {
		if !s.canAdd(u) {
			continue
		}
		dead, tight := 0, 0
		adj := g.adj[u]
		for i := 0; i < fc.nSingle; i++ {
			if adj.Has(fc.single[i]) {
				tight++
			} else {
				dead++
			}
		}
		for i := 0; i < fc.nLive; i++ {
			switch fc.live[i].IntersectCountUpToIn(adj, 2, fc.lo[i], fc.hi[i]) {
			case 0:
				dead++
			case 1:
				tight++
			}
		}
		fc.cands = append(fc.cands, u)
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
