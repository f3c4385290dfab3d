package dfg

import "fmt"

// ResMII returns the resource-constrained lower bound on II for an array of
// numPEs processing elements arranged in `rows` rows, each row sharing one
// memory bus: ceil(|V| / numPEs) for compute and ceil(memOps / rows) for the
// buses (one access per row per cycle).
func (d *DFG) ResMII(numPEs, rows int) int {
	if numPEs <= 0 || rows <= 0 {
		panic("dfg: ResMII needs positive PE and row counts")
	}
	res := ceilDiv(d.N(), numPEs)
	if m := d.MemOps(); m > 0 {
		if busII := ceilDiv(m, rows); busII > res {
			res = busII
		}
	}
	if res < 1 {
		res = 1
	}
	return res
}

// RecMII returns the recurrence-constrained lower bound on II: the smallest
// II for which the dependence constraint system
//
//	T(j) >= T(i) + lat(i) - II*dist(i,j)
//
// admits a solution, i.e. the constraint graph has no positive-weight cycle.
// Feasibility is monotone in II, so a binary search over [1, sum(lat)]
// bracketed by a Bellman-Ford positive-cycle test suffices.
func (d *DFG) RecMII() int {
	lo, hi := 1, 1
	for _, nd := range d.Nodes {
		hi += nd.Kind.Latency()
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if d.feasibleII(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// feasibleII reports whether the precedence constraints admit a schedule at
// the given II (no positive cycle in the delay graph with edge weights
// lat(i) - II*dist).
func (d *DFG) feasibleII(ii int) bool {
	n := d.N()
	dist := make([]int, n)
	// Longest-path relaxation from an implicit super-source at 0. If any
	// distance still improves after n rounds, a positive cycle exists.
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range d.Edges {
			w := d.Nodes[e.From].Kind.Latency() - ii*e.Dist
			if nd := dist[e.From] + w; nd > dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	for _, e := range d.Edges {
		w := d.Nodes[e.From].Kind.Latency() - ii*e.Dist
		if dist[e.From]+w > dist[e.To] {
			return false
		}
	}
	return true
}

// MII returns max(ResMII, RecMII), the paper's lower bound used as the
// starting II and as the denominator of the performance metric MII/II.
func (d *DFG) MII(numPEs, rows int) int {
	res := d.ResMII(numPEs, rows)
	rec := d.RecMII()
	if rec > res {
		return rec
	}
	return res
}

// ResBounded reports whether the loop is resource-bounded on the given array
// (ResMII >= RecMII), the paper's classification for its two loop groups.
func (d *DFG) ResBounded(numPEs, rows int) bool {
	return d.ResMII(numPEs, rows) >= d.RecMII()
}

// ASAP computes the earliest feasible schedule slot of every operation at the
// given II by longest-path relaxation over the delay graph (weights
// lat - II*dist, clamped at zero from the implicit start). It returns an
// error if II is below RecMII.
func (d *DFG) ASAP(ii int) ([]int, error) {
	if !d.feasibleII(ii) {
		return nil, fmt.Errorf("dfg %s: no schedule exists at II=%d (RecMII=%d)", d.Name, ii, d.RecMII())
	}
	n := d.N()
	asap := make([]int, n)
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range d.Edges {
			w := d.Nodes[e.From].Kind.Latency() - ii*e.Dist
			if t := asap[e.From] + w; t > asap[e.To] {
				asap[e.To] = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return asap, nil
}

// Heights returns the scheduling priority of each node: the length of the
// longest intra-iteration dependence path from the node to any sink. Higher
// means more urgent; this is the classic height-based ordering the paper
// refers to as the "justifiable static policy".
func (d *DFG) Heights() []int {
	// Longest path to a sink over distance-0 edges (a DAG by validation).
	g := d.IntraGraph()
	order, ok := g.TopoSort()
	if !ok {
		panic("dfg: Heights on graph with distance-0 cycle")
	}
	h := make([]int, d.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, w := range g.Out(v) {
			if hv := h[w] + d.Nodes[v].Kind.Latency(); hv > h[v] {
				h[v] = hv
			}
		}
	}
	return h
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
