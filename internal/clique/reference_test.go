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
// score or weight-sum maintenance — and checks the optimized engine against it
// elementwise on randomized weighted graphs. Because both sides share every
// tie-break (first maximum in increasing node id, insertion order, stable
// sorts), agreement must be exact, not just equal-cardinality: any divergence
// means pooling or incrementality changed a result.

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

// refCanAdd recomputes every weight sum from scratch.
func refCanAdd(g *Graph, members []int, u int) bool {
	for _, m := range members {
		if m == u || !g.Adjacent(u, m) {
			return false
		}
	}
	if g.Cap() < 0 {
		return true
	}
	uSum := g.Base(u)
	for _, m := range members {
		uSum += g.Weight(u, m)
		mSum := g.Base(m) + g.Weight(m, u)
		for _, v := range members {
			if v != m {
				mSum += g.Weight(m, v)
			}
		}
		if mSum > g.Cap() {
			return false
		}
	}
	return uSum <= g.Cap()
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
	order := opts.SeedOrder
	if len(order) != g.N() {
		order = refDegreeOrder(g)
	}
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

// randomFlatGraph builds a graph using the flat AddWeight storage path.
func randomFlatGraph(rng *rand.Rand, n, cap int, edgeProb, weightProb float64) *Graph {
	g := NewGraph(n, cap)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < edgeProb {
				g.AddEdge(u, v)
				if rng.Float64() < weightProb {
					g.AddWeight(u, v, rng.Intn(3))
				}
				if rng.Float64() < weightProb {
					g.AddWeight(v, u, rng.Intn(3))
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.2 {
			g.AddBase(u, rng.Intn(3))
		}
	}
	return g
}

// randomClusterGraph builds a graph using the SetWeightFunc path, mimicking
// REGIMap's register demand: weights exist only inside a cluster (a PE) and
// depend only on the consumer.
func randomClusterGraph(rng *rand.Rand, n, cap, nClusters int, edgeProb float64) *Graph {
	g := NewGraph(n, cap)
	cluster := make([]int, n)
	demand := make([]int, n)
	for u := 0; u < n; u++ {
		cluster[u] = rng.Intn(nClusters)
		demand[u] = rng.Intn(3)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < edgeProb {
				g.AddEdge(u, v)
			}
		}
	}
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.2 {
			g.AddBase(u, rng.Intn(2))
		}
	}
	fn := func(u, v int) int {
		if cluster[u] != cluster[v] {
			return 0
		}
		return demand[v]
	}
	hasOut := func(u int) bool {
		for v := 0; v < n; v++ {
			if v != u && fn(u, v) != 0 {
				return true
			}
		}
		return false
	}
	g.SetWeightFunc(fn, hasOut, func(u int) int { return cluster[u] })
	return g
}

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
		{"flat/unconstrained", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 8+r.Intn(20), -1, 0.5, 0) }, Options{}},
		{"flat/weighted", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 8+r.Intn(20), 2+r.Intn(4), 0.55, 0.5) }, Options{}},
		{"flat/tight-cap", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 8+r.Intn(16), r.Intn(2), 0.6, 0.7) }, Options{}},
		{"flat/no-swap", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 8+r.Intn(20), 3, 0.5, 0.5) }, Options{DisableSwap: true}},
		{"flat/no-intersect", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 8+r.Intn(20), 3, 0.5, 0.5) }, Options{DisableIntersect: true}},
		{"flat/few-seeds", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 12+r.Intn(16), 3, 0.5, 0.5) }, Options{MaxSeeds: 4, MaxIntersections: 6}},
		{"cluster/REGIMap-shape", func(r *rand.Rand) *Graph { return randomClusterGraph(r, 10+r.Intn(20), 2+r.Intn(3), 2+r.Intn(4), 0.55) }, Options{}},
		{"cluster/tight-cap", func(r *rand.Rand) *Graph { return randomClusterGraph(r, 10+r.Intn(16), 1, 2+r.Intn(3), 0.6) }, Options{}},
		{"sparse", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 16+r.Intn(16), 3, 0.15, 0.5) }, Options{}},
		{"dense", func(r *rand.Rand) *Graph { return randomFlatGraph(r, 8+r.Intn(12), 4, 0.85, 0.4) }, Options{}},
	}
}

// TestFindMatchesReference diffs the pooled/incremental Find against the naive
// reference elementwise over randomized graphs and targets.
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
				// Pooling determinism: a second run of the same search must be
				// byte-identical to the first.
				if again := Find(g, target, tc.opts); !reflect.DeepEqual(got, again) {
					t.Fatalf("trial %d: Find not deterministic: %v then %v", trial, got, again)
				}
			}
		})
	}
}

// TestFindSeedOrderOptionMatchesDefault checks the Options.SeedOrder contract:
// passing Graph.DegreeOrder explicitly must reproduce the default exactly
// (REGIMap shares one order across clique.Find calls this way).
func TestFindSeedOrderOptionMatchesDefault(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		g := randomFlatGraph(rng, 10+rng.Intn(20), 3, 0.5, 0.5)
		target := 1 + rng.Intn(g.N())
		def := Find(g, target, Options{})
		shared := Find(g, target, Options{SeedOrder: g.DegreeOrder()})
		if !reflect.DeepEqual(def, shared) {
			t.Fatalf("trial %d: default=%v with SeedOrder=%v", trial, def, shared)
		}
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
// Weights are REGIMap's register demand: inside a PE, the consumer's demand.
// Pending groups then often give every candidate the same forward-check
// verdict — all dead, all exactly one live neighbour, or all several.
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
	g := NewGraph(len(pe), 2+rng.Intn(3))
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
	demand := make([]int, len(groups))
	groupOf := make([]int, len(pe))
	for gi, grp := range groups {
		if rng.Float64() < 0.4 {
			demand[gi] = 1 + rng.Intn(2)
		}
		for _, u := range grp {
			groupOf[u] = gi
		}
	}
	fn := func(u, v int) int {
		if pe[u] != pe[v] {
			return 0
		}
		return demand[groupOf[v]]
	}
	hasOut := func(u int) bool {
		for v := range pe {
			if v != u && fn(u, v) != 0 {
				return true
			}
		}
		return false
	}
	g.SetWeightFunc(fn, hasOut, func(u int) int { return pe[u] })
	for u := range pe {
		if rng.Float64() < 0.1 {
			g.AddBase(u, 1)
		}
	}
	return g, groups
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
// rebuild-and-rescan reference elementwise, on random flat and clustered
// graphs and on product-shaped ones (randomProductGraph) under weight
// budgets, default and random group orders, and round budgets. The
// reference ignores the group index's constraint relation, and FindGrouped
// must match it under three relations: every pair constrained, the pairs
// derived exactly from the graph (free when complete bipartite), and a
// coarsened derivation that keeps random free pairs constrained. Some graphs
// leave nodes outside every group, which the tie-break counts as
// constrained, and some keep edges inside groups, which makes the picked
// group's own live candidates count. One Pool per case serves every trial,
// and the node counts repeat, so arenas are rebound across graphs of one
// size as regimapd's are; a generic Find on the same pool between searches
// leaves its states dirty.
func TestFindGroupedMatchesReference(t *testing.T) {
	sizes := []int{24, 40, 96, 150}
	cases := []struct {
		name      string
		gen       func(r *rand.Rand, n int) *Graph
		maxSize   int
		scattered bool
		product   bool // gen is unused: randomProductGraph builds graph and groups
		loose     bool // about one node in eight belongs to no group
		intra     bool // half the pairs inside a group are adjacent
	}{
		{"flat/unconstrained", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, -1, 0.6, 0) }, 4, false, false, false, false},
		{"flat/weighted", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, 2+r.Intn(4), 0.65, 0.5) }, 5, false, false, false, false},
		{"flat/tight-cap", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, r.Intn(3), 0.7, 0.6) }, 4, false, false, false, false},
		{"flat/scattered", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, 2+r.Intn(3), 0.65, 0.5) }, 6, true, false, false, false},
		{"flat/loose-nodes", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, 2+r.Intn(3), 0.8, 0.3) }, 3, false, false, true, false},
		{"flat/intra-group-edges", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, -1, 0.6, 0) }, 8, false, false, false, true},
		{"cluster/REGIMap-shape", func(r *rand.Rand, n int) *Graph { return randomClusterGraph(r, n, 2+r.Intn(3), 2+r.Intn(6), 0.7) }, 6, false, false, false, false},
		{"cluster/tight-cap", func(r *rand.Rand, n int) *Graph { return randomClusterGraph(r, n, 1, 2+r.Intn(3), 0.75) }, 4, false, false, false, false},
		{"cluster/scattered", func(r *rand.Rand, n int) *Graph { return randomClusterGraph(r, n, 2, 3+r.Intn(4), 0.7) }, 8, true, false, false, false},
		{"cluster/intra-group-edges", func(r *rand.Rand, n int) *Graph { return randomClusterGraph(r, n, 2, 3+r.Intn(4), 0.7) }, 8, false, false, false, true},
		{"dense", func(r *rand.Rand, n int) *Graph { return randomFlatGraph(r, n, 3, 0.85, 0.4) }, 3, false, false, false, false},
		{"product/REGIMap-shape", nil, 0, false, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool()
			for trial := 0; trial < 24; trial++ {
				rng := rand.New(rand.NewSource(int64(12000 + trial)))
				var g *Graph
				var groups [][]int
				if tc.product {
					g, groups = randomProductGraph(rng, 4*sizes[trial%len(sizes)])
				} else {
					g = tc.gen(rng, sizes[trial%len(sizes)])
					groups = randomGroups(rng, g, tc.maxSize, tc.scattered)
				}
				if tc.loose {
					for gi, grp := range groups {
						if len(grp) > 1 && rng.Intn(4) == 0 {
							groups[gi] = grp[1:]
						}
					}
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
				opts := Options{GroupRounds: rng.Intn(7), Arenas: pool}
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
					Find(g, len(groups), Options{Arenas: pool})
					if again := FindGrouped(g, gx, opts); !reflect.DeepEqual(got, again) {
						t.Fatalf("trial %d: pooled rerun differs: %v then %v", trial, got, again)
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
		g := NewGraph(n, 2+rng.Intn(3))
		groups := make([][]int, nGroups)
		groupOf := make([]int, n)
		for gi := range groups {
			for k := 0; k < perGroup; k++ {
				u := gi*perGroup + k
				groups[gi] = append(groups[gi], u)
				groupOf[u] = gi
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if groupOf[u] != groupOf[v] && rng.Float64() < 0.7 {
					g.AddEdge(u, v)
					if rng.Float64() < 0.4 {
						g.AddWeight(u, v, rng.Intn(2))
					}
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
		g := randomFlatGraph(rng, 12, 3, 0.5, 0.5)
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
