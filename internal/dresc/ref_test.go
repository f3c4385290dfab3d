package dresc

import (
	"context"
	"math"
	"math/rand"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/sched"
)

// This file preserves the pre-optimization annealer verbatim (per-call
// incident-edge maps, O(E) totalCost per move, fresh path slices per
// reroute, closure-based Dijkstra) as the behavioural reference.
// TestAnnealMatchesReference drives it and the optimized annealer from
// identical RNGs on random kernels: placements, paths, and move/accept
// counts must stay byte-identical.

type refState struct {
	d    *dfg.DFG
	c    *arch.CGRA
	m    *arch.MRRG
	ii   int
	time []int
	pe   []int
	path [][]int
	use  []int
	over int

	dist, prev, stamp []int
	gen               int
	heapBuf           []heapItem
}

func refAnnealAtII(ctx context.Context, d *dfg.DFG, c *arch.CGRA, ii int, opts Options, rng *rand.Rand, stats *Stats) *Placement {
	pes, memRows := c.MIIResources()
	sc := sched.New(d, pes, memRows)
	res, err := sc.Schedule(ii, sched.Options{NoCompact: true})
	if err != nil {
		return nil
	}
	s := &refState{
		d:    d,
		c:    c,
		m:    arch.BuildMRRG(c, ii),
		ii:   ii,
		time: append([]int(nil), res.Time...),
		pe:   make([]int, d.N()),
		path: make([][]int, len(d.Edges)),
	}
	s.use = make([]int, s.m.N())
	for v := range s.pe {
		s.pe[v] = randomSupportingPE(c, d.Nodes[v].Kind, rng)
		s.occupyOp(v, +1)
	}
	for ei := range d.Edges {
		s.reroute(ei)
	}

	movesPerT := opts.MovesPerTemperature
	if movesPerT <= 0 {
		movesPerT = 24 * d.N()
	}
	temp := 4.0
	cooling := opts.Cooling
	if cooling <= 0 {
		cooling = 0.92
	}
	minTemp := 0.05

	bestCost := s.totalCost()
	stale := 0
	for ; temp > minTemp; temp *= cooling {
		if ctx.Err() != nil {
			return nil
		}
		for move := 0; move < movesPerT; move++ {
			if s.totalCost() == 0 {
				return s.placement()
			}
			stats.Moves++
			if s.tryMove(rng, temp) {
				stats.Accepts++
			}
		}
		if cost := s.totalCost(); cost < bestCost {
			bestCost = cost
			stale = 0
		} else {
			stale++
			if stale >= 8 {
				break
			}
		}
	}
	if s.totalCost() == 0 {
		return s.placement()
	}
	return nil
}

func (s *refState) occupyOp(v, delta int) {
	slot := s.time[v] % s.ii
	s.addUse(s.m.FUNode(s.pe[v], slot), delta)
	if s.d.Nodes[v].Kind != dfg.Store && len(s.d.OutEdges(v)) > 0 {
		s.addUse(s.m.OutRegNode(s.pe[v], (slot+1)%s.ii), delta)
	}
	if s.d.Nodes[v].Kind.IsMem() {
		s.addUse(s.m.BusNode(s.c.RowOf(s.pe[v]), slot), delta)
	}
}

func (s *refState) addUse(node, delta int) {
	before := s.use[node]
	s.use[node] = before + delta
	cap := s.m.Cap(node)
	overBefore := maxInt(0, before-cap)
	overAfter := maxInt(0, s.use[node]-cap)
	s.over += overAfter - overBefore
}

func (s *refState) reroute(ei int) {
	if s.path[ei] != nil {
		for _, node := range pathOccupancy(s.path[ei]) {
			s.addUse(node, -1)
		}
		s.path[ei] = nil
	}
	e := s.d.Edges[ei]
	src := s.m.OutRegNode(s.pe[e.From], (s.time[e.From]+1)%s.ii)
	dst := s.m.FUNode(s.pe[e.To], s.time[e.To]%s.ii)
	span := s.time[e.To] - s.time[e.From] + s.ii*e.Dist
	p := s.route(src, dst, span)
	s.path[ei] = p
	for _, node := range pathOccupancy(p) {
		s.addUse(node, +1)
	}
}

func (s *refState) route(src, dst, span int) []int {
	if span < 1 {
		return nil
	}
	const inf = math.MaxInt32
	states := s.m.N() * (span + 1)
	if len(s.dist) < states {
		s.dist = make([]int, states)
		s.prev = make([]int, states)
		s.stamp = make([]int, states)
	}
	s.gen++
	dist, prev, stamp, gen := s.dist, s.prev, s.stamp, s.gen
	at := func(node, elapsed int) int { return node*(span+1) + elapsed }
	get := func(i int) int {
		if stamp[i] != gen {
			return inf
		}
		return dist[i]
	}
	set := func(i, d, p int) {
		stamp[i] = gen
		dist[i] = d
		prev[i] = p
	}

	start := at(src, 1)
	set(start, s.nodeCost(src), -1)
	h := &nodeHeap{items: s.heapBuf[:0]}
	h.push(heapItem{node: start, dist: get(start)})
	goal := at(dst, span)
	for h.len() > 0 {
		it := h.pop()
		if it.dist > get(it.node) {
			continue
		}
		if it.node == goal {
			break
		}
		node, elapsed := it.node/(span+1), it.node%(span+1)
		for _, w := range s.m.Out(node) {
			nextElapsed := elapsed
			if s.m.Kind(w) != arch.FU {
				nextElapsed++
			}
			if nextElapsed > span {
				continue
			}
			if s.m.Kind(w) == arch.FU && (w != dst || nextElapsed != span) {
				if w == dst {
					continue
				}
			}
			ws := at(w, nextElapsed)
			cost := 1
			if ws != goal {
				cost += s.nodeCost(w)
			}
			if d := it.dist + cost; d < get(ws) {
				set(ws, d, it.node)
				h.push(heapItem{node: ws, dist: d})
			}
		}
	}
	s.heapBuf = h.items[:0]
	if get(goal) == inf {
		return nil
	}
	var rev []int
	for cur := goal; cur != -1; cur = prev[cur] {
		rev = append(rev, cur/(span+1))
	}
	path := make([]int, 0, len(rev)-1)
	for i := len(rev) - 1; i >= 1; i-- {
		path = append(path, rev[i])
	}
	return path
}

func (s *refState) nodeCost(node int) int {
	overflow := s.use[node] - s.m.Cap(node) + 1
	if overflow <= 0 {
		return 0
	}
	return 6 * overflow
}

func (s *refState) totalCost() int {
	cost := s.over
	for ei := range s.path {
		if s.path[ei] == nil {
			cost += unroutablePenalty
		}
	}
	return cost
}

func (s *refState) tryMove(rng *rand.Rand, temp float64) bool {
	v := rng.Intn(s.d.N())
	oldPE, oldTime := s.pe[v], s.time[v]
	newPE, newTime := oldPE, oldTime

	switch rng.Intn(3) {
	case 0:
		newPE = randomSupportingPE(s.c, s.d.Nodes[v].Kind, rng)
	case 1:
		newTime = oldTime + 1 - 2*rng.Intn(2)
	default:
		newPE = randomSupportingPE(s.c, s.d.Nodes[v].Kind, rng)
		newTime = oldTime + 1 - 2*rng.Intn(2)
	}
	if newTime < 0 || !s.timeFeasible(v, newTime) {
		return false
	}
	if newPE == oldPE && newTime == oldTime {
		return false
	}

	before := s.totalCost()
	touched := s.incidentEdges(v)
	oldPaths := make([][]int, len(touched))
	for i, ei := range touched {
		oldPaths[i] = s.path[ei]
	}

	s.occupyOp(v, -1)
	s.pe[v], s.time[v] = newPE, newTime
	s.occupyOp(v, +1)
	for _, ei := range touched {
		s.reroute(ei)
	}
	after := s.totalCost()

	delta := after - before
	if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
		return true
	}
	s.occupyOp(v, -1)
	s.pe[v], s.time[v] = oldPE, oldTime
	s.occupyOp(v, +1)
	for i, ei := range touched {
		for _, node := range pathOccupancy(s.path[ei]) {
			s.addUse(node, -1)
		}
		s.path[ei] = oldPaths[i]
		for _, node := range pathOccupancy(s.path[ei]) {
			s.addUse(node, +1)
		}
	}
	return false
}

func (s *refState) timeFeasible(v, t int) bool {
	for _, ei := range s.d.InEdges(v) {
		e := s.d.Edges[ei]
		if e.From == v {
			continue
		}
		if t < s.time[e.From]+s.d.Nodes[e.From].Kind.Latency()-s.ii*e.Dist {
			return false
		}
	}
	for _, ei := range s.d.OutEdges(v) {
		e := s.d.Edges[ei]
		if e.To == v {
			continue
		}
		if s.time[e.To] < t+s.d.Nodes[v].Kind.Latency()-s.ii*e.Dist {
			return false
		}
	}
	return true
}

func (s *refState) incidentEdges(v int) []int {
	var out []int
	seen := map[int]bool{}
	for _, ei := range s.d.InEdges(v) {
		if !seen[ei] {
			seen[ei] = true
			out = append(out, ei)
		}
	}
	for _, ei := range s.d.OutEdges(v) {
		if !seen[ei] {
			seen[ei] = true
			out = append(out, ei)
		}
	}
	return out
}

func (s *refState) placement() *Placement {
	p := &Placement{
		M:     s.m,
		D:     s.d,
		II:    s.ii,
		Time:  append([]int(nil), s.time...),
		PE:    append([]int(nil), s.pe...),
		Paths: make([][]int, len(s.path)),
	}
	for i := range s.path {
		p.Paths[i] = append([]int(nil), s.path[i]...)
	}
	return p
}
