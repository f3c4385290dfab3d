package clique

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// This file ports the clique engine's algorithms to a deliberately naive
// reference — fresh slices everywhere, no arena, no bitsets, no incremental
// score or load maintenance — and checks the optimized engine against it
// elementwise on randomized graphs with random clusters, demands and
// register files. Because both sides share every tie-break (first maximum in
// increasing node id, insertion order, stable sorts), agreement must be
// exact, not just equal-cardinality: any divergence means arena reuse or
// incrementality changed a result.
//
// The reference judges feasibility the way the paper states it, not by
// per-cluster loads: every member's directed weight sum into the clique
// stays within one global cap R, the largest register file, with
//
//	w(u -> v) = demand(v) when u and v share a cluster, 0 otherwise
//	base(u)   = demand(u) + R - regs(cluster(u))
//
// so the engine's O(1) load checks are tested against Theorem C.1, not
// against themselves.

// refCand returns the nodes adjacent to every member, in increasing id order
// (the reference for state.cand; all nodes when members is empty).
func refCand(g *Graph, members []int) []int {
	var out []int
	for u := 0; u < g.N(); u++ {
		ok := true
		for _, m := range members {
			if u == m || !g.Adjacent(u, m) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// refCap is the paper's one global budget: the largest register file.
func refCap(g *Graph) int {
	R := 0
	for c := 0; c < g.Clusters(); c++ {
		R = max(R, g.Regs(c))
	}
	return R
}

// refWeight is the paper's directed weight w(u -> v).
func refWeight(g *Graph, u, v int) int {
	if g.Cluster(u) != g.Cluster(v) {
		return 0
	}
	return g.Demand(v)
}

// refBase is u's unconditional weight: its own demand plus its cluster's
// deficit against the global cap.
func refBase(g *Graph, u int) int {
	return g.Demand(u) + refCap(g) - g.Regs(g.Cluster(u))
}

// refCanAdd recomputes every member's weight sum from scratch.
func refCanAdd(g *Graph, members []int, u int) bool {
	for _, m := range members {
		if m == u || !g.Adjacent(u, m) {
			return false
		}
	}
	R := refCap(g)
	uSum := refBase(g, u)
	for _, m := range members {
		uSum += refWeight(g, u, m)
		mSum := refBase(g, m) + refWeight(g, m, u)
		for _, v := range members {
			if v != m {
				mSum += refWeight(g, m, v)
			}
		}
		if mSum > R {
			return false
		}
	}
	return uSum <= R
}

func refGrow(g *Graph, members []int, target int) []int {
	for len(members) < target {
		cand := refCand(g, members)
		best, bestScore := -1, -1
		for _, u := range cand {
			if !refCanAdd(g, members, u) {
				continue
			}
			score := 0
			for _, v := range cand {
				if v != u && g.Adjacent(u, v) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = u, score
			}
		}
		if best == -1 {
			return members
		}
		members = append(members, best)
	}
	return members
}

func refFindSwap(g *Graph, members []int) (int, int) {
	inC := make(map[int]bool, len(members))
	for _, m := range members {
		inC[m] = true
	}
	for cand := 0; cand < g.N(); cand++ {
		if inC[cand] {
			continue
		}
		miss := 0
		for _, m := range members {
			if !g.Adjacent(cand, m) {
				miss++
			}
		}
		if miss != 1 {
			continue
		}
		for _, m := range members {
			if !g.Adjacent(cand, m) {
				return cand, m
			}
		}
	}
	return -1, -1
}

func refSwapImprove(g *Graph, members []int, target int) []int {
	best := members
	cur := members
	for round := 0; round < 2*len(cur)+4 && len(cur) < target; round++ {
		u, x := refFindSwap(g, cur)
		if u == -1 {
			break
		}
		next := make([]int, 0, len(cur))
		for _, m := range cur {
			if m != x {
				next = append(next, m)
			}
		}
		if !refCanAdd(g, next, u) {
			break
		}
		next = append(next, u)
		next = refGrow(g, next, target)
		if len(next) <= len(cur) {
			break
		}
		cur = next
		if len(cur) > len(best) {
			best = cur
		}
	}
	return best
}

func refDegreeOrder(g *Graph) []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if g.Degree(order[i]) != g.Degree(order[j]) {
			return g.Degree(order[i]) > g.Degree(order[j])
		}
		return order[i] < order[j]
	})
	return order
}

func refIntersect(a, b []int) []int {
	inB := make(map[int]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	var out []int
	for _, v := range a {
		if inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func refFind(g *Graph, target int, opts Options) []int {
	maxSeeds := opts.MaxSeeds
	if maxSeeds <= 0 {
		maxSeeds = DefaultMaxSeeds
	}
	maxInter := opts.MaxIntersections
	if maxInter <= 0 {
		maxInter = DefaultMaxIntersections
	}
	if target > g.N() {
		target = g.N()
	}
	order := refDegreeOrder(g)
	if len(order) > maxSeeds {
		order = order[:maxSeeds]
	}

	var best []int
	var found [][]int
	consider := func(members []int) bool {
		c := append([]int(nil), members...)
		found = append(found, c)
		if len(c) > len(best) {
			best = c
		}
		return len(best) >= target
	}

	for _, seed := range order {
		if !refCanAdd(g, nil, seed) {
			continue
		}
		members := refGrow(g, []int{seed}, target)
		if !opts.DisableSwap {
			members = refSwapImprove(g, members, target)
		}
		if consider(members) {
			return best
		}
	}

	if !opts.DisableIntersect {
		sort.SliceStable(found, func(i, j int) bool { return len(found[i]) > len(found[j]) })
		pairs := 0
		for i := 0; i < len(found) && pairs < maxInter; i++ {
			for j := i + 1; j < len(found) && pairs < maxInter; j++ {
				pairs++
				seed := refIntersect(found[i], found[j])
				if len(seed) == 0 || len(seed) == len(found[i]) || len(seed) == len(found[j]) {
					continue
				}
				members := refGrow(g, append([]int(nil), seed...), target)
				if !opts.DisableSwap {
					members = refSwapImprove(g, members, target)
				}
				if consider(members) {
					return best
				}
			}
		}
	}
	return best
}

// refFindGrouped is the naive FindGrouped: every swap trial rebuilds the
// clique without its blocker member by member, and every forward check
// counts live candidates over whole candidate lists.
func refFindGrouped(g *Graph, groups [][]int, opts Options) []int {
	rounds := opts.GroupRounds
	if rounds <= 0 {
		rounds = DefaultGroupRounds
	}
	var order []int
	if len(opts.GroupOrder) == len(groups) {
		order = append([]int(nil), opts.GroupOrder...)
	} else {
		freedom := make([]int, len(groups))
		for gi, cands := range groups {
			freedom[gi] = -1
			for _, u := range cands {
				freedom[gi] = max(freedom[gi], g.Degree(u))
			}
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
	groupOf := make([]int, g.N())
	for gi, cands := range groups {
		for _, u := range cands {
			groupOf[u] = gi
		}
	}
	var best []int
	for round := 0; round < rounds; round++ {
		var members, failed []int
		pending := make(map[int]bool, len(order))
		for _, gi := range order {
			pending[gi] = true
		}
		for oi, gi := range order {
			delete(pending, gi)
			if pick := refPickCandidate(g, members, groups, order[oi+1:], pending, gi); pick != -1 {
				members = append(members, pick)
			} else if repaired := refSwapInGroup(g, members, groups, groupOf, gi); repaired != nil {
				members = repaired
			} else {
				failed = append(failed, gi)
			}
		}
		for iter := 0; iter < 2*len(failed)+2 && len(failed) > 0; iter++ {
			progress := false
			var still []int
			for _, gi := range failed {
				if repaired := refSwapInGroup(g, members, groups, groupOf, gi); repaired != nil {
					members = repaired
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
		if len(members) > len(best) {
			best = append([]int(nil), members...)
		}
		if len(failed) == 0 {
			return best
		}
		next := append([]int(nil), failed...)
		for _, gi := range order {
			if !slices.Contains(failed, gi) {
				next = append(next, gi)
			}
		}
		order = next
	}
	return best
}

// refPickCandidate is the least-constraining-value pick: fewest pending
// groups left without a live candidate, then fewest left with exactly one
// (over the first maxLookahead pending groups), then most arcs into the
// candidate set, the first such candidate in group order winning.
func refPickCandidate(g *Graph, members []int, groups [][]int, rest []int, pending map[int]bool, gi int) int {
	cand := refCand(g, members)
	var look []int
	for _, gj := range rest {
		if pending[gj] && len(look) < maxLookahead {
			look = append(look, gj)
		}
	}
	best, bestDead, bestTight, bestScore := -1, 0, 0, 0
	for _, u := range groups[gi] {
		if !refCanAdd(g, members, u) {
			continue
		}
		dead, tight := 0, 0
		for _, gj := range look {
			live := 0
			for _, v := range groups[gj] {
				if slices.Contains(cand, v) && g.Adjacent(u, v) {
					live++
				}
			}
			switch live {
			case 0:
				dead++
			case 1:
				tight++
			}
		}
		score := 0
		for _, v := range cand {
			if g.Adjacent(u, v) {
				score++
			}
		}
		if best == -1 || dead < bestDead || dead == bestDead && (tight < bestTight || tight == bestTight && score > bestScore) {
			best, bestDead, bestTight, bestScore = u, dead, tight, score
		}
	}
	return best
}

// refSwapInGroup is the one-out repair by construction: for each candidate
// of group gi blocked by exactly one member, rebuild the clique without the
// blocker, admit the candidate, and re-place the blocker's group on its
// best-connected feasible candidate.
func refSwapInGroup(g *Graph, members []int, groups [][]int, groupOf []int, gi int) []int {
	for _, u := range groups[gi] {
		if slices.Contains(members, u) {
			continue
		}
		blocker, misses := -1, 0
		for _, m := range members {
			if !g.Adjacent(u, m) {
				misses++
				if blocker == -1 {
					blocker = m
				}
			}
		}
		if misses != 1 {
			continue
		}
		var trial []int
		ok := true
		for _, m := range members {
			if m == blocker {
				continue
			}
			if ok = refCanAdd(g, trial, m); !ok {
				break
			}
			trial = append(trial, m)
		}
		if !ok || !refCanAdd(g, trial, u) {
			continue
		}
		trial = append(trial, u)
		cand := refCand(g, trial)
		repick, repickScore := -1, -1
		for _, w := range groups[groupOf[blocker]] {
			if !refCanAdd(g, trial, w) {
				continue
			}
			score := 0
			for _, v := range cand {
				if g.Adjacent(w, v) {
					score++
				}
			}
			if score > repickScore {
				repick, repickScore = w, score
			}
		}
		if repick != -1 {
			return append(trial, repick)
		}
	}
	return nil
}

// refFindExact is the naive exhaustive search for a maximum feasible clique
// (stopping early at target), with only the trivial size bound. The tests
// use it as the ground truth the heuristic is checked against.
func refFindExact(g *Graph, target int) []int {
	var best []int
	var dfs func(members, cand []int)
	dfs = func(members, cand []int) {
		if len(members) > len(best) {
			best = append([]int(nil), members...)
		}
		if len(best) >= target {
			return
		}
		if len(members)+len(cand) <= len(best) {
			return
		}
		for i, u := range cand {
			if !refCanAdd(g, members, u) {
				continue
			}
			childMembers := append(append([]int(nil), members...), u)
			var childCand []int
			for _, v := range cand[i+1:] {
				if g.Adjacent(v, u) {
					childCand = append(childCand, v)
				}
			}
			dfs(childMembers, childCand)
			if len(best) >= target {
				return
			}
		}
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	dfs(nil, all)
	return best
}

// randomRegGraph builds an n-node graph over the given number of clusters:
// each file holds regs(rng) registers, each node sits on a random cluster
// and, with probability demandProb, needs one or two registers of its file,
// and each node pair is adjacent with probability edgeProb.
func randomRegGraph(rng *rand.Rand, n, clusters int, regs func(*rand.Rand) int, edgeProb, demandProb float64) *Graph {
	g := NewGraph(n, clusters)
	for c := 0; c < clusters; c++ {
		g.SetRegs(c, regs(rng))
	}
	for u := 0; u < n; u++ {
		g.SetCluster(u, rng.Intn(clusters))
		if rng.Float64() < demandProb {
			g.SetDemand(u, 1+rng.Intn(2))
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < edgeProb {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// fileOf returns a register-file draw uniform over [lo, hi].
func fileOf(lo, hi int) func(*rand.Rand) int {
	return func(r *rand.Rand) int { return lo + r.Intn(hi-lo+1) }
}

// referenceCases are Find's reference cases. The flat graphs have one
// cluster, so every member shares one register file; the cluster graphs
// spread the nodes over several files of different sizes, as REGIMap's PEs.
func referenceCases() []struct {
	name string
	gen  func(rng *rand.Rand) *Graph
	opts Options
} {
	return []struct {
		name string
		gen  func(rng *rand.Rand) *Graph
		opts Options
	}{
		{"flat/unconstrained", func(r *rand.Rand) *Graph { return randomRegGraph(r, 8+r.Intn(20), 1, fileOf(0, 4), 0.5, 0) }, Options{}},
		{"flat/weighted", func(r *rand.Rand) *Graph { return randomRegGraph(r, 8+r.Intn(20), 1, fileOf(2, 5), 0.55, 0.5) }, Options{}},
		{"flat/tight-cap", func(r *rand.Rand) *Graph { return randomRegGraph(r, 8+r.Intn(16), 1, fileOf(0, 1), 0.6, 0.7) }, Options{}},
		{"flat/no-swap", func(r *rand.Rand) *Graph { return randomRegGraph(r, 8+r.Intn(20), 1, fileOf(3, 3), 0.5, 0.5) }, Options{DisableSwap: true}},
		{"flat/no-intersect", func(r *rand.Rand) *Graph { return randomRegGraph(r, 8+r.Intn(20), 1, fileOf(3, 3), 0.5, 0.5) }, Options{DisableIntersect: true}},
		{"flat/few-seeds", func(r *rand.Rand) *Graph { return randomRegGraph(r, 12+r.Intn(16), 1, fileOf(3, 3), 0.5, 0.5) }, Options{MaxSeeds: 4, MaxIntersections: 6}},
		{"cluster/REGIMap-shape", func(r *rand.Rand) *Graph {
			return randomRegGraph(r, 10+r.Intn(20), 2+r.Intn(4), fileOf(1, 4), 0.55, 0.5)
		}, Options{}},
		{"cluster/tight-cap", func(r *rand.Rand) *Graph {
			return randomRegGraph(r, 10+r.Intn(16), 2+r.Intn(3), fileOf(0, 1), 0.6, 0.6)
		}, Options{}},
		{"sparse", func(r *rand.Rand) *Graph {
			return randomRegGraph(r, 16+r.Intn(16), 1+r.Intn(4), fileOf(1, 4), 0.15, 0.5)
		}, Options{}},
		{"dense", func(r *rand.Rand) *Graph {
			return randomRegGraph(r, 8+r.Intn(12), 1+r.Intn(4), fileOf(2, 5), 0.85, 0.4)
		}, Options{}},
	}
}

// TestFindMatchesReference diffs the arena-reusing, incremental Find against
// the naive reference elementwise over randomized graphs and targets.
func TestFindMatchesReference(t *testing.T) {
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				g := tc.gen(rng)
				target := 1 + rng.Intn(g.N())
				got := Find(g, target, tc.opts)
				want := refFind(g, target, tc.opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (n=%d target=%d): Find=%v reference=%v", trial, g.N(), target, got, want)
				}
				if !g.IsFeasibleClique(got) {
					t.Fatalf("trial %d: Find returned infeasible clique %v", trial, got)
				}
				// Arena reuse: a second run of the same search, on the states
				// the first left behind, must be byte-identical to the first.
				if again := Find(g, target, tc.opts); !reflect.DeepEqual(got, again) {
					t.Fatalf("trial %d: Find not deterministic: %v then %v", trial, got, again)
				}
			}
		})
	}
}

// randomGroups partitions g's nodes into groups of 1..maxSize nodes — runs
// of consecutive ids, as REGIMap's compat graphs number one operation's
// bindings, or, when scattered, drawn from a random permutation so group
// masks span many words — lists each group in shuffled order, and clears
// every edge inside a group, since one operation's bindings exclude each
// other.
func randomGroups(rng *rand.Rand, g *Graph, maxSize int, scattered bool) [][]int {
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = i
	}
	if scattered {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	var groups [][]int
	for len(ids) > 0 {
		k := min(1+rng.Intn(maxSize), len(ids))
		grp := append([]int(nil), ids[:k]...)
		ids = ids[k:]
		rng.Shuffle(len(grp), func(i, j int) { grp[i], grp[j] = grp[j], grp[i] })
		for i, u := range grp {
			for _, v := range grp[i+1:] {
				g.ClearEdge(u, v)
			}
		}
		groups = append(groups, grp)
	}
	return groups
}

// randomProductGraph builds a graph shaped like REGIMap's D ⊗ R_II of about
// n nodes: one group per operation, one candidate per supporting PE of a
// ring fabric of up to 40 PEs (consecutive ids per group, as the compat
// builder numbers them, so group spans cross words), and every pair of
// groups related one of the ways the compat rules relate two operations:
//
//   - complete: independent operations in different slots;
//   - complete minus the same-PE matching: operations sharing a slot;
//   - adjacent only on linked PEs (a PE links to itself and its two ring
//     neighbours): a forwarded dependence;
//   - adjacent only on one PE: a register-carried dependence.
//
// Every binding holds its operation's register demand in its PE's file, and
// the files differ by PE. Pending groups then often give every candidate the
// same forward-check verdict — all dead, all exactly one live neighbour, or
// all several.
func randomProductGraph(rng *rand.Rand, n int) (*Graph, [][]int) {
	pes := 3 + rng.Intn(38)
	nGroups := max(2, n/pes)
	var groups [][]int
	var pe []int
	for gi := 0; gi < nGroups; gi++ {
		var grp []int
		for p := 0; p < pes; p++ {
			if rng.Float64() < 0.85 || p == pes-1 && len(grp) == 0 {
				grp = append(grp, len(pe))
				pe = append(pe, p)
			}
		}
		groups = append(groups, grp)
	}
	g := NewGraph(len(pe), pes)
	for p := 0; p < pes; p++ {
		g.SetRegs(p, 1+rng.Intn(4))
	}
	linked := func(p, q int) bool { d := (p - q + pes) % pes; return d <= 1 || d == pes-1 }
	for gi := range groups {
		for gj := gi + 1; gj < len(groups); gj++ {
			rel := rng.Float64()
			for _, u := range groups[gi] {
				for _, v := range groups[gj] {
					var ok bool
					switch {
					case rel < 0.45:
						ok = true
					case rel < 0.75:
						ok = pe[u] != pe[v]
					case rel < 0.92:
						ok = linked(pe[u], pe[v])
					default:
						ok = pe[u] == pe[v]
					}
					if ok {
						g.AddEdge(u, v)
					}
				}
			}
		}
	}
	for _, grp := range groups {
		demand := 0
		if rng.Float64() < 0.4 {
			demand = 1 + rng.Intn(2)
		}
		for _, u := range grp {
			g.SetCluster(u, pe[u])
			g.SetDemand(u, demand)
		}
	}
	return g, groups
}

// splitIDs renumbers g's nodes so that the first half of every group's ids
// comes before the second half of any: each group's span then holds words
// without a node of its own, and some of those hold only nodes of groups
// free with a group constrained with it. Its result is g relabelled, with
// the groups' lists.
func splitIDs(g *Graph, groups [][]int) (*Graph, [][]int) {
	id := make([]int, g.N())
	next := 0
	for half := 0; half < 2; half++ {
		for _, grp := range groups {
			part := grp[:(len(grp)+1)/2]
			if half == 1 {
				part = grp[len(part):]
			}
			for _, u := range part {
				id[u] = next
				next++
			}
		}
	}
	out := NewGraph(g.N(), g.Clusters())
	for c := 0; c < g.Clusters(); c++ {
		out.SetRegs(c, g.Regs(c))
	}
	for u := 0; u < g.N(); u++ {
		out.SetCluster(id[u], g.Cluster(u))
		out.SetDemand(id[u], g.Demand(u))
		for v := u + 1; v < g.N(); v++ {
			if g.Adjacent(u, v) {
				out.AddEdge(id[u], id[v])
			}
		}
	}
	split := make([][]int, len(groups))
	for gi, grp := range groups {
		for _, u := range grp {
			split[gi] = append(split[gi], id[u])
		}
	}
	return out, split
}

// gapWords counts, over the rows of a graph laid out from gx, the words
// that lie inside the span of a group constrained with the row's group but
// hold no node of any such group: words a layout must still store so that
// each constrained span sits contiguously in the row.
func gapWords(gx *Groups) int {
	gaps := 0
	for l := range gx.lists {
		for w := 0; w < (gx.n+63)/64; w++ {
			inSpan, used := false, false
			for h := range gx.lists {
				if !gx.Constrained(l, h) {
					continue
				}
				lo, hi := gx.Span(h)
				inSpan = inSpan || lo <= w && w < hi
				used = used || gx.Mask(h).Words()[w] != 0
			}
			if inSpan && !used {
				gaps++
			}
		}
	}
	return gaps
}

// completeBipartite reports whether every node of a is adjacent to every
// node of b, the promise a free pair of a group index makes.
func completeBipartite(g *Graph, a, b []int) bool {
	for _, u := range a {
		for _, v := range b {
			if u == v || !g.Adjacent(u, v) {
				return false
			}
		}
	}
	return true
}

// relate marks on gx every group pair of g that is complete bipartite free,
// except that each such pair stays constrained with probability coarsen: a
// coarser relation is still a true one, since only free bits promise
// anything.
func relate(rng *rand.Rand, g *Graph, gx *Groups, groups [][]int, coarsen float64) {
	for gi := range groups {
		for gj := gi + 1; gj < len(groups); gj++ {
			if completeBipartite(g, groups[gi], groups[gj]) && (coarsen == 0 || rng.Float64() >= coarsen) {
				gx.Constrain(gi, gj, false)
			}
		}
	}
}

// TestFindGroupedMatchesReference diffs FindGrouped against the naive
// rebuild-and-rescan reference elementwise, on random one-file and
// clustered graphs and on product-shaped ones (randomProductGraph) under
// register files, default and random group orders, and round budgets. The
// reference ignores the group index's constraint relation, and FindGrouped
// must match it under three relations: every pair constrained, the pairs
// derived exactly from the graph (free when complete bipartite), and a
// coarsened derivation that keeps random free pairs constrained. Some graphs
// keep edges inside groups, which makes the picked group's own live
// candidates count. Each search after the first on a graph reuses the
// graph's arenas, and a generic Find between searches leaves their states
// dirty. Under each relation, a copy of the graph laid out from it (rows
// holding only their explicit words) must give FindGrouped the reference's
// answer and Find the dense graph's. The product graphs with split ids
// (splitIDs) must lay out words that lie in a constrained group's span
// without holding a node of any constrained group (gapWords).
func TestFindGroupedMatchesReference(t *testing.T) {
	sizes := []int{24, 40, 96, 150}
	cases := []struct {
		name      string
		gen       func(r *rand.Rand, n int) *Graph
		maxSize   int
		scattered bool
		product   bool // gen is unused: randomProductGraph builds graph and groups
		intra     bool // half the pairs inside a group are adjacent
	}{
		{"flat/unconstrained", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 1, fileOf(0, 4), 0.6, 0) }, 4, false, false, false},
		{"flat/weighted", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 1, fileOf(2, 5), 0.65, 0.5) }, 5, false, false, false},
		{"flat/tight-cap", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 1, fileOf(0, 2), 0.7, 0.6) }, 4, false, false, false},
		{"flat/scattered", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 1, fileOf(2, 4), 0.65, 0.5) }, 6, true, false, false},
		{"flat/intra-group-edges", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 1, fileOf(0, 4), 0.6, 0) }, 8, false, false, true},
		{"cluster/REGIMap-shape", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 2+r.Intn(6), fileOf(1, 4), 0.7, 0.5) }, 6, false, false, false},
		{"cluster/tight-cap", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 2+r.Intn(3), fileOf(0, 1), 0.75, 0.5) }, 4, false, false, false},
		{"cluster/scattered", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 3+r.Intn(4), fileOf(1, 3), 0.7, 0.5) }, 8, true, false, false},
		{"cluster/intra-group-edges", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 3+r.Intn(4), fileOf(1, 3), 0.7, 0.5) }, 8, false, false, true},
		{"dense", func(r *rand.Rand, n int) *Graph { return randomRegGraph(r, n, 1+r.Intn(4), fileOf(2, 4), 0.85, 0.4) }, 3, false, false, false},
		{"product/REGIMap-shape", nil, 0, false, true, false},
		{"product/split-ids", nil, 0, true, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			implicit, gaps := 0, 0 // implicit and gap words over the laid-out copies
			defer func() {
				if tc.product && !tc.scattered && implicit == 0 && !t.Failed() {
					t.Error("no laid-out product graph has an implicit word")
				}
				if tc.product && tc.scattered && gaps == 0 && !t.Failed() {
					t.Error("no laid-out split product graph has a gap word")
				}
			}()
			for trial := 0; trial < 24; trial++ {
				rng := rand.New(rand.NewSource(int64(12000 + trial)))
				var g *Graph
				var groups [][]int
				if tc.product {
					g, groups = randomProductGraph(rng, 4*sizes[trial%len(sizes)])
					if tc.scattered {
						g, groups = splitIDs(g, groups)
					}
				} else {
					g = tc.gen(rng, sizes[trial%len(sizes)])
					groups = randomGroups(rng, g, tc.maxSize, tc.scattered)
				}
				if tc.intra {
					for _, grp := range groups {
						for i, u := range grp {
							for _, v := range grp[i+1:] {
								if rng.Intn(2) == 0 {
									g.AddEdge(u, v)
								}
							}
						}
					}
				}
				opts := Options{GroupRounds: rng.Intn(7)}
				if trial%2 == 1 {
					opts.GroupOrder = rng.Perm(len(groups))
				}
				want := refFindGrouped(g, groups, opts)
				for _, coarsen := range []float64{1, 0, 0.3} {
					gx := NewGroups(g.N(), groups)
					relate(rng, g, gx, groups, coarsen)
					got := FindGrouped(g, gx, opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d (n=%d groups=%d, coarsen %v): FindGrouped=%v reference=%v", trial, g.N(), len(groups), coarsen, got, want)
					}
					if !g.IsFeasibleClique(got) {
						t.Fatalf("trial %d: FindGrouped returned infeasible clique %v", trial, got)
					}
					dense := Find(g, len(groups), Options{})
					if again := FindGrouped(g, gx, opts); !reflect.DeepEqual(got, again) {
						t.Fatalf("trial %d: rerun on reused arenas differs: %v then %v", trial, got, again)
					}
					// The same graph with its rows laid out from the relation
					// stores only the explicit words; both searches must not
					// notice.
					laid := &Graph{}
					copyGraph(laid, g, gx)
					for u := range laid.rows {
						implicit += laid.wpr - len(laid.rows[u])
					}
					gaps += gapWords(gx)
					if got := FindGrouped(laid, gx, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d (coarsen %v), laid out: FindGrouped=%v reference=%v", trial, coarsen, got, want)
					}
					if got := Find(laid, len(groups), Options{}); !reflect.DeepEqual(got, dense) || !laid.IsFeasibleClique(got) {
						t.Fatalf("trial %d (coarsen %v), laid out: Find=%v, on the dense graph %v", trial, coarsen, got, dense)
					}
				}
			}
		})
	}
}

// TestFindGroupedDeterministicAndFeasible exercises the grouped search's
// arena reuse: results must be feasible, respect one-per-group, and be
// identical across repeated runs.
func TestFindGroupedDeterministicAndFeasible(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		nGroups := 3 + rng.Intn(6)
		perGroup := 2 + rng.Intn(4)
		n := nGroups * perGroup
		// Candidate k of every group sits on cluster k, as REGIMap's
		// bindings sit on PEs, and every group has one demand.
		g := NewGraph(n, perGroup)
		for c := 0; c < perGroup; c++ {
			g.SetRegs(c, 1+rng.Intn(3))
		}
		groups := make([][]int, nGroups)
		groupOf := make([]int, n)
		for gi := range groups {
			demand := rng.Intn(2)
			for k := 0; k < perGroup; k++ {
				u := gi*perGroup + k
				groups[gi] = append(groups[gi], u)
				groupOf[u] = gi
				g.SetCluster(u, k)
				g.SetDemand(u, demand)
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if groupOf[u] != groupOf[v] && rng.Float64() < 0.7 {
					g.AddEdge(u, v)
				}
			}
		}
		gx := NewGroups(n, groups)
		got := FindGrouped(g, gx, Options{})
		if !g.IsFeasibleClique(got) {
			t.Fatalf("trial %d: FindGrouped returned infeasible clique %v", trial, got)
		}
		seen := make(map[int]bool)
		for _, u := range got {
			if seen[groupOf[u]] {
				t.Fatalf("trial %d: two members from group %d in %v", trial, groupOf[u], got)
			}
			seen[groupOf[u]] = true
		}
		if again := FindGrouped(g, gx, Options{}); !reflect.DeepEqual(got, again) {
			t.Fatalf("trial %d: FindGrouped not deterministic: %v then %v", trial, got, again)
		}
	}
}

// sanity check for the reference itself: its results must be feasible too,
// otherwise agreement above would prove nothing.
func TestReferenceSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomRegGraph(rng, 12, 1+rng.Intn(3), fileOf(1, 4), 0.5, 0.5)
		for _, target := range []int{1, 4, 12} {
			if got := refFind(g, target, Options{}); !g.IsFeasibleClique(got) {
				t.Fatalf("reference Find infeasible: %v", got)
			}
			if got := refFindExact(g, target); !g.IsFeasibleClique(got) {
				t.Fatalf("refFindExact infeasible: %v", got)
			}
		}
	}
}
