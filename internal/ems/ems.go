// Package ems implements an EMS-style baseline (Park et al., PACT'08, as
// characterized in the REGIMap paper): an edge-centric greedy mapper.
// Operations are placed one at a time directly onto (PE, cycle) slots with
// routing as the primary concern — each dependence is realized immediately,
// through a neighbour's output register (one cycle), through the producer's
// register file (same PE, longer spans), or through a chain of explicit
// routing operations walked across the mesh one hop per cycle. There is no
// learning: when an operation cannot be placed, II is increased and the
// whole mapping retried, exactly the escalation behaviour the paper
// criticizes in exploratory mappers.
//
// The placer is arena-style (DESIGN.md section 8h): one working DFG clone is
// journaled and rolled back across II attempts instead of re-cloned, slot
// occupancy lives in flat bitsets, and register pressure is maintained
// incrementally. Route searches are built once per placement, not once per
// candidate slot: occupancy is frozen while placeOp scans v's candidates
// (only commit and materializeChain write it, after the scan), so the route
// BFS from a producer's (PE, time) is the same tree for every candidate, and
// one pooled route tree per producer answers them all. Every decision is
// made in the same order as the straightforward map-based placer it replaced
// (kept as the reference in ref_test.go), so mappings are byte-identical —
// the golden suite pins this.
package ems

import (
	"context"
	"sort"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/graph"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
)

// Failure taxonomy (regimap/internal/maperr), re-exported for callers:
// errors.Is(err, ems.ErrNoMapping), errors.Is(err, ems.ErrAborted), and
// errors.As with *ems.InvalidMappingError all work on Map's errors.
var (
	ErrNoMapping = maperr.ErrNoMapping
	ErrAborted   = maperr.ErrAborted
)

// InvalidMappingError reports a mapper-internal bug: a produced mapping that
// fails its own validation.
type InvalidMappingError = maperr.InvalidMappingError

// Options configures the mapper.
type Options struct {
	// MinII raises the II the escalation starts from (0: MII).
	MinII int
	// MaxII caps II escalation (0: MII + 16).
	MaxII int
}

// Stats reports the outcome.
type Stats struct {
	MII        int
	II         int // achieved II (0 on failure)
	Placements int // operation placements attempted
	Routes     int // routing operations materialized
	Elapsed    time.Duration
}

// Perf returns MII/II, the paper's performance metric (0 on failure).
func (s *Stats) Perf() float64 {
	if s.II == 0 {
		return 0
	}
	return float64(s.MII) / float64(s.II)
}

// Map greedily maps the kernel, escalating II on any placement failure. The
// returned mapping's DFG may contain extra Route operations.
//
// Cancelling ctx aborts the search at the next II-escalation boundary; the
// returned error wraps ctx.Err() when the abort was context-driven.
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*mapping.Mapping, *Stats, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	tr := obs.From(ctx).Named("ems", d.Name)
	pes, memRows := c.MIIResources()
	stats := &Stats{MII: d.MII(pes, memRows)}
	tr.Point1("mii", "mii", int64(stats.MII))
	done := func() {
		stats.Elapsed = time.Since(start)
		tr.Point("map.done", "ii", int64(stats.II), "mii", int64(stats.MII), "attempts", int64(stats.Placements))
	}
	if c.UsablePEs() == 0 {
		done()
		return nil, stats, maperr.NoMapping("ems: no mapping for %s on %s: every PE is broken", d.Name, c)
	}
	maxII := opts.MaxII
	if maxII <= 0 {
		maxII = stats.MII + 16
	}
	p := newPlacer(d, c)
	for ii := max(stats.MII, opts.MinII); ii <= maxII; ii++ {
		if err := ctx.Err(); err != nil {
			done()
			return nil, stats, maperr.Aborted(err, "ems: mapping %s aborted: %v", d.Name, err)
		}
		placements, routes := stats.Placements, stats.Routes
		sp := tr.Start("ems.place")
		m := p.placeAtII(ii, stats)
		sp.Field("ii", int64(ii))
		sp.Field("placements", int64(stats.Placements-placements))
		sp.Field("routes", int64(stats.Routes-routes))
		sp.FieldBool("ok", m != nil)
		sp.End()
		if m != nil {
			stats.II = ii
			done()
			if err := m.Validate(); err != nil {
				return nil, nil, &maperr.InvalidMappingError{Mapper: "ems", What: "mapping", Err: err}
			}
			return m, stats, nil
		}
	}
	done()
	if err := ctx.Err(); err != nil {
		return nil, stats, maperr.Aborted(err, "ems: mapping %s aborted: %v", d.Name, err)
	}
	return nil, stats, maperr.NoMapping("ems: no mapping for %s on %s up to II=%d", d.Name, c, maxII)
}

// chainSet stores the route chains of one placement plan as slices of a
// shared buffer: chain i serves edge edges[i] and occupies
// buf[offs[i]:offs[i+1]]. tryPosition fills the placer's cur set; when a
// candidate becomes the new best the two sets swap, so a pass needs exactly
// two arenas however many positions it scores.
type chainSet struct {
	buf   []int
	offs  []int // len(edges)+1 boundaries, offs[0] == 0
	edges []int
}

func (s *chainSet) reset() {
	s.buf = s.buf[:0]
	s.offs = append(s.offs[:0], 0)
	s.edges = s.edges[:0]
}

// placer is the working state of one Map call, reused across II attempts:
// the DFG clone is journaled and rolled back instead of re-cloned, and every
// scratch structure keeps its capacity between attempts.
type placer struct {
	ds *dfg.DFG // working DFG; routing nodes are appended as they are walked
	c  *arch.CGRA
	ii int

	time, pe []int
	occupied graph.Bitset // PE slot (pe*ii + t mod ii) in use
	busUse   []int        // mem ops issued per bus-group slot (group*ii + t mod ii)

	// Register pressure, maintained incrementally: contrib[v] is the regs
	// producer v currently charges to PE pe[v] (ceil(maxCarriedSpan/II) when
	// its longest placed out-edge spans >1 cycles), pressure is the per-PE
	// sum. Placing v only changes the max span of v itself and of its placed
	// producers (route insertion rewrites only their out-edges), so placeOp
	// refreshes exactly those entries — the O(V·E) full recompute the
	// reference placer performs after every placement reduces to O(deg).
	pressure []int
	contrib  []int
	affected []int // scratch: producers whose contribution placeOp refreshes

	order     []int   // placement order: height-descending, stable
	kindCands [][]int // per-OpKind supporting PEs, ascending; lazily built
	routeOK   []bool  // Supports(pe, Route), cached for the BFS inner loop

	// Route trees of the current placeOp scan, one per producer slot
	// routeChain has been asked about; trees[:nTrees] are live and the rest
	// keep their capacity for later scans.
	trees  []routeTree
	nTrees int

	cur, best chainSet
}

// routeTree is the level-synchronous route BFS from one producer slot
// (fromPE, fromT), grown on demand. Level k holds the PEs a value can sit on
// k cycles after the producer, each carrying it in a route operation at
// cycle fromT+k; level 0 is the producer's own PE.
type routeTree struct {
	fromPE, fromT int
	pes           []int   // level k is pes[offs[k]:offs[k+1]], in BFS insertion order
	offs          []int   // len(levels)+1 boundaries, offs[0] == 0
	prevPE        []int32 // row k: pe's predecessor in level k-1, or -1 if pe is not in level k
}

// depth returns the deepest level grown so far.
func (tr *routeTree) depth() int { return len(tr.offs) - 2 }

// level returns level k's frontier in insertion order.
func (tr *routeTree) level(k int) []int { return tr.pes[tr.offs[k]:tr.offs[k+1]] }

func newPlacer(d *dfg.DFG, c *arch.CGRA) *placer {
	p := &placer{ds: d.Clone(), c: c}
	n := c.NumPEs()
	p.pressure = make([]int, n)
	p.routeOK = make([]bool, n)
	for pe := 0; pe < n; pe++ {
		p.routeOK[pe] = c.Supports(pe, dfg.Route)
	}

	heights := d.Heights()
	p.order = make([]int, d.N())
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(i, j int) bool {
		if heights[p.order[i]] != heights[p.order[j]] {
			return heights[p.order[i]] > heights[p.order[j]]
		}
		return p.order[i] < p.order[j]
	})
	return p
}

// candsFor returns the PEs supporting kind, ascending — the same PEs the
// reference placer's full 0..NumPEs scan would accept, without re-asking
// Supports per (t, pe) candidate.
func (p *placer) candsFor(kind dfg.OpKind) []int {
	ik := int(kind)
	if ik >= len(p.kindCands) {
		grown := make([][]int, ik+1)
		copy(grown, p.kindCands)
		p.kindCands = grown
	}
	if p.kindCands[ik] == nil {
		cands := make([]int, 0, p.c.NumPEs())
		for pe := 0; pe < p.c.NumPEs(); pe++ {
			if p.c.Supports(pe, kind) {
				cands = append(cands, pe)
			}
		}
		p.kindCands[ik] = cands
	}
	return p.kindCands[ik]
}

// resetInts returns s with length n and every element set to v, reusing the
// backing array when it is large enough.
func resetInts(s []int, n, v int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// placeAtII runs one greedy pass at a fixed II. On failure the working DFG
// is rolled back to the kernel, ready for the next attempt.
func (p *placer) placeAtII(ii int, stats *Stats) *mapping.Mapping {
	p.ii = ii
	mark := p.ds.Mark()
	n := p.ds.N()
	p.time = resetInts(p.time, n, -1)
	p.pe = resetInts(p.pe, n, -1)
	p.contrib = resetInts(p.contrib, n, 0)
	for i := range p.pressure {
		p.pressure[i] = 0
	}
	p.occupied.Grow(p.c.NumPEs() * ii)
	p.busUse = resetInts(p.busUse, p.c.NumBusGroups()*ii, 0)

	for _, v := range p.order {
		stats.Placements++
		if !p.placeOp(v, stats) {
			p.ds.Rollback(mark)
			return nil
		}
	}

	m := mapping.New(p.ds, p.c, ii)
	copy(m.Time, p.time)
	copy(m.PE, p.pe)
	if m.Validate() != nil {
		// Two greedily-committed route chains can collide; with no repair
		// strategy that is an ordinary failure of this II.
		p.ds.Rollback(mark)
		return nil
	}
	return m
}

// placeOp finds the cheapest feasible slot for v and commits it together
// with any routing chains its dependences need. Scan order (time ascending,
// then PE ascending, strict improvement only) fixes which of several
// equal-cost positions wins; it must not change.
func (p *placer) placeOp(v int, stats *Stats) bool {
	p.nTrees = 0 // the last placement changed occupancy: every tree is stale
	early := 0
	for _, ei := range p.ds.InEdges(v) {
		e := p.ds.Edges[ei]
		if e.From == v || p.time[e.From] < 0 {
			continue
		}
		if lo := p.time[e.From] + 1 - p.ii*e.Dist; lo > early {
			early = lo
		}
	}
	kind := p.ds.Nodes[v].Kind
	cands := p.candsFor(kind)
	found := false
	var bestPE, bestT, bestCost int
	for t := early; t < early+p.ii; t++ {
		for _, pe := range cands {
			if p.slotBusy(pe, t, kind) {
				continue
			}
			cost, ok := p.tryPosition(v, pe, t)
			if !ok {
				continue
			}
			if !found || cost < bestCost {
				found = true
				bestPE, bestT, bestCost = pe, t, cost
				p.cur, p.best = p.best, p.cur
			}
		}
	}
	if !found {
		return false
	}
	// Producers of v placed so far: route insertion below rewrites their
	// out-edges, so their register contribution is refreshed afterwards.
	// Collected now because materializeChain re-points v's in-edges at the
	// inserted route nodes.
	p.affected = p.affected[:0]
	for _, ei := range p.ds.InEdges(v) {
		e := p.ds.Edges[ei]
		if e.From != v && p.time[e.From] >= 0 {
			p.affected = append(p.affected, e.From)
		}
	}
	p.commit(v, bestPE, bestT)
	for i := range p.best.edges {
		chain := p.best.buf[p.best.offs[i]:p.best.offs[i+1]]
		p.materializeChain(p.best.edges[i], chain, stats)
	}
	p.updateContrib(v)
	for _, u := range p.affected {
		p.updateContrib(u)
	}
	for pe, used := range p.pressure {
		if used > p.c.RegsAt(pe) {
			return false // over budget with no repair strategy: escalate II
		}
	}
	return true
}

func (p *placer) modii(t int) int {
	s := t % p.ii
	if s < 0 {
		s += p.ii
	}
	return s
}

func (p *placer) slotBusy(pe, t int, kind dfg.OpKind) bool {
	slot := p.modii(t)
	if p.occupied.Has(pe*p.ii + slot) {
		return true
	}
	if !kind.IsMem() {
		return false
	}
	if !p.c.MemPEOk(pe) {
		return true
	}
	g := p.c.BusGroupOf(pe)
	return p.busUse[g*p.ii+slot] >= p.c.BusGroupCap(g)
}

func (p *placer) commit(v, pe, t int) {
	p.time[v] = t
	p.pe[v] = pe
	p.occupied.Set(pe*p.ii + p.modii(t))
	if p.ds.Nodes[v].Kind.IsMem() {
		p.busUse[p.c.BusGroupOf(pe)*p.ii+p.modii(t)]++
	}
}

// tryPosition checks v at (pe, t) against every placed neighbour, returning
// the routing cost; the route chains to materialize are left in p.cur.
func (p *placer) tryPosition(v, pe, t int) (cost int, ok bool) {
	p.cur.reset()
	check := func(ei int, prodPE, prodT, consPE, consT, dist int) bool {
		span := consT - prodT + p.ii*dist
		switch {
		case span < 1:
			return false
		case span == 1:
			if !p.c.Connected(prodPE, consPE) {
				return false
			}
			if prodPE != consPE {
				cost++
			}
			return true
		case prodPE == consPE:
			regs := (span + p.ii - 1) / p.ii
			if p.pressure[prodPE]+regs > p.c.RegsAt(prodPE) {
				return false
			}
			cost += 2 * regs
			return true
		case dist > 0:
			// An inter-iteration value cannot be walked hop-by-hop (the
			// chain's first hop would itself span iterations): same PE only.
			return false
		default:
			if !p.routeChain(ei, prodPE, prodT, consPE, span) {
				return false
			}
			cost += 2 * (span - 1)
			return true
		}
	}
	for _, ei := range p.ds.InEdges(v) {
		e := p.ds.Edges[ei]
		if e.From == v {
			if spanSelf := p.ii * e.Dist; spanSelf > 1 {
				regs := (spanSelf + p.ii - 1) / p.ii
				if p.pressure[pe]+regs > p.c.RegsAt(pe) {
					return 0, false
				}
				cost += 2 * regs
			}
			continue
		}
		if p.time[e.From] < 0 {
			continue
		}
		if !check(ei, p.pe[e.From], p.time[e.From], pe, t, e.Dist) {
			return 0, false
		}
	}
	for _, ei := range p.ds.OutEdges(v) {
		e := p.ds.Edges[ei]
		if e.To == v || p.time[e.To] < 0 {
			continue
		}
		if !check(ei, pe, t, p.pe[e.To], p.time[e.To], e.Dist) {
			return 0, false
		}
	}
	return cost, true
}

// routeChain walks the value from the producer's PE to a PE adjacent to the
// consumer in exactly span cycles: one route operation per cycle, each on a
// PE adjacent to (or equal to) the previous one, each needing a free slot.
// On success it appends the PE sequence of the span-1 route operations to
// p.cur and returns true.
//
// The search is the reference placer's level-synchronous BFS over (pe, k)
// states: within a level, states expand in insertion order and each expands
// to itself first, then its neighbours in Neighbors order. Occupancy is
// frozen for the whole placeOp scan, so level k depends only on the
// producer's slot and k; the levels live in the producer's route tree and
// are shared by every candidate slot of the scan. Only the stopping level
// (span-1) and the goal test (Connected to toPE) vary per query, so the
// first goal state in level span-1's insertion order — and hence the chain —
// is identical to a fresh BFS.
func (p *placer) routeChain(ei, fromPE, fromT, toPE, span int) bool {
	tr := p.routeTree(fromPE, fromT)
	last := span - 1
	for tr.depth() < last {
		if !p.grow(tr) {
			return false
		}
	}
	n := p.c.NumPEs()
	for _, pe := range tr.level(last) {
		if p.c.Connected(pe, toPE) {
			// Reconstruct the chain pe_1..pe_{span-1} back-to-front.
			s := &p.cur
			base := len(s.buf)
			if want := base + last; cap(s.buf) >= want {
				s.buf = s.buf[:want]
			} else {
				grown := make([]int, want, 2*want)
				copy(grown, s.buf)
				s.buf = grown
			}
			at := pe
			for k := last; k > 0; k-- {
				s.buf[base+k-1] = at
				at = int(tr.prevPE[k*n+at])
			}
			s.offs = append(s.offs, len(s.buf))
			s.edges = append(s.edges, ei)
			return true
		}
	}
	return false
}

// routeTree returns the scan's route tree rooted at producer slot (fromPE,
// fromT), starting a fresh one — in a pooled arena — on the first query.
func (p *placer) routeTree(fromPE, fromT int) *routeTree {
	for i := 0; i < p.nTrees; i++ {
		if tr := &p.trees[i]; tr.fromPE == fromPE && tr.fromT == fromT {
			return tr
		}
	}
	if p.nTrees == len(p.trees) {
		p.trees = append(p.trees, routeTree{})
	}
	tr := &p.trees[p.nTrees]
	p.nTrees++
	n := p.c.NumPEs()
	tr.fromPE, tr.fromT = fromPE, fromT
	tr.pes = append(tr.pes[:0], fromPE)
	tr.offs = append(tr.offs[:0], 0, 1)
	tr.prevPE = appendUnvisited(tr.prevPE[:0], n)
	tr.prevPE[fromPE] = int32(fromPE)
	return tr
}

// grow appends the next level to tr: every free, route-capable PE reachable
// in one hop (or by staying put) from the deepest level. It returns false,
// appending nothing, when the deepest level is empty — then so is every
// deeper one.
func (p *placer) grow(tr *routeTree) bool {
	k := tr.depth()
	lo, hi := tr.offs[k], tr.offs[k+1]
	if lo == hi {
		return false
	}
	n := p.c.NumPEs()
	row := (k + 1) * n
	tr.prevPE = appendUnvisited(tr.prevPE, n)
	slotT := tr.fromT + k + 1
	visit := func(q, from int) {
		if tr.prevPE[row+q] < 0 && p.routeOK[q] && !p.slotBusy(q, slotT, dfg.Route) {
			tr.prevPE[row+q] = int32(from)
			tr.pes = append(tr.pes, q)
		}
	}
	for i := lo; i < hi; i++ {
		pe := tr.pes[i]
		// Candidates: stay on pe, then hop to each neighbour.
		visit(pe, pe)
		for _, q := range p.c.Neighbors(pe) {
			visit(q, pe)
		}
	}
	tr.offs = append(tr.offs, len(tr.pes))
	return true
}

// appendUnvisited appends a prevPE row of n unvisited (-1) entries to s.
func appendUnvisited(s []int32, n int) []int32 {
	s = append(s, make([]int32, n)...)
	row := s[len(s)-n:]
	for i := range row {
		row[i] = -1
	}
	return s
}

// materializeChain appends the route operations of one chain to the working
// DFG and commits their placements. The chain PEs execute at consecutive
// cycles after the producer.
func (p *placer) materializeChain(ei int, chain []int, stats *Stats) {
	e := p.ds.Edges[ei]
	prodT := p.time[e.From]
	node, to, port := e.From, e.To, e.Port
	for k, pe := range chain {
		rt := p.ds.InsertRoute(p.edgeIndexFrom(node, to, port))
		p.time = append(p.time, prodT+k+1)
		p.pe = append(p.pe, pe)
		p.contrib = append(p.contrib, 0)
		p.occupied.Set(pe*p.ii + p.modii(prodT+k+1))
		stats.Routes++
		node = rt
	}
}

// edgeIndexFrom finds the current index of the edge node->to feeding the
// given port (indices shift as routes are inserted).
func (p *placer) edgeIndexFrom(node, to, port int) int {
	for _, ei := range p.ds.OutEdges(node) {
		e := p.ds.Edges[ei]
		if e.To == to && e.Port == port {
			return ei
		}
	}
	panic("ems: lost track of an edge while routing")
}

// updateContrib recomputes producer v's register contribution from its
// current out-edges — ceil(maxCarriedSpan/II) charged to its PE, exactly the
// per-node term of the reference placer's full pressure recompute — and
// applies the delta to the per-PE pressure.
func (p *placer) updateContrib(v int) {
	maxSpan := 0
	for _, ei := range p.ds.OutEdges(v) {
		e := p.ds.Edges[ei]
		var span int
		if e.To == v {
			span = p.ii * e.Dist
		} else {
			if p.time[e.To] < 0 {
				continue
			}
			span = p.time[e.To] - p.time[v] + p.ii*e.Dist
		}
		if span > 1 && span > maxSpan {
			maxSpan = span
		}
	}
	contrib := 0
	if maxSpan > 1 {
		contrib = (maxSpan + p.ii - 1) / p.ii
	}
	p.pressure[p.pe[v]] += contrib - p.contrib[v]
	p.contrib[v] = contrib
}
