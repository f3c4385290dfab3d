// Package exact maps kernels by reduction to SAT, the repo's only engine
// that can prove optimality: "map this DFG on this CGRA at II=k" becomes a
// CNF formula whose models are exactly the legal mappings of the relaxation
// class (schedules plus optional per-edge route chains up to a hop budget),
// solved by internal/sat. A SAT verdict decodes into a mapping.Mapping that
// mapping.Validate and the simulator certify; an UNSAT verdict at II=k is a
// certificate that no mapping in the class exists at k. See DESIGN.md
// section 8k for the encoding and the certificate semantics.
package exact

import (
	"context"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/sat"
)

// enode is one schedulable entity: a real DFG operation, or an optional
// route hop a dependence edge may activate. Hops model what dfg.InsertRoute
// does structurally, so models decode through the same primitive the
// heuristics use.
type enode struct {
	kind    dfg.OpKind
	win     window
	allowed []int // candidate PEs, ascending
	pVar    []int // PE one-hot vars, aligned with allowed
	gVar    []int // order encoding: gVar[i] ⇔ T >= win.Lo+1+i
	sVar    []int // modulo-slot vars, indexed by slot; -1 unreachable
	act     int   // activation var; -1 for always-active real nodes
}

// subedge is one potential dependence segment of an edge's route chain:
// the direct edge, producer→hop1, hop_{j-1}→hop_j, or hop_j→consumer.
// cond holds the literals that neutralize its constraints when the segment
// is inactive under the chosen activation pattern.
type subedge struct {
	x, y int // unified node indices
	dist int
	cond []ml
	ge   map[int]int // span threshold θ -> SpanGE var
	geTh []int       // creation order of thresholds (determinism)
}

type buildStatus int

const (
	buildOK         buildStatus = iota
	buildUnsat                  // windows infeasible: no schedule in the class at this II
	buildUnmappable             // some op has no capable PE at any II
	buildTooLarge               // encoding exceeds the size budget
	buildCancelled              // ctx was done at a phase boundary
)

// solveCheckEvery is how often, in conflicts, a rung's solve polls its
// context. A raced ladder cancels the rungs above its winner, and par.First
// waits for them to return, so a rung must notice within a few conflicts.
// The poll reads the context only; it never moves the search.
const solveCheckEvery = 16

type problem struct {
	d       *dfg.DFG
	c       *arch.CGRA
	ii      int
	maxSpan int
	hops    int
	rmax    int
	s       *sat.Solver

	nodes    []enode
	hopNodes [][]int // per edge: unified indices of its hops
	actVars  [][]int // per edge: activation ladder vars
	subs     []subedge
	cVar     [][]int        // per node: register-cost vars, index k-1; -1 absent
	fanTo    [][]int        // per node: consumer list (distinct, in creation order)
	fanVar   map[[2]int]int // (producer, consumer) -> remote-read var
	badNode  int            // offending op for buildUnmappable

	// Per-clause scratch, reused across the whole encoding: clause's
	// literals, sclause's guarded clause, the clauses the emitters
	// assemble before guarding them, and atMostK's two counter columns.
	scratch    []sat.Lit
	guarded    []ml
	ms         []ml
	colA, colB []sat.Lit
}

func (p *problem) mod(t int) int { return ((t % p.ii) + p.ii) % p.ii }

// ge returns the order-encoding literal "T[node] >= t" with window
// boundaries folded to constants.
func (p *problem) ge(nd *enode, t int) ml {
	switch {
	case t <= nd.win.Lo:
		return mTrue
	case t > nd.win.Hi:
		return mFalse
	default:
		return mv(sat.Pos(nd.gVar[t-nd.win.Lo-1]))
	}
}

// allowedPEs returns the PEs that may execute kind, honoring faults,
// capability classes, memory-capable PEs, and dead row buses.
func allowedPEs(c *arch.CGRA, kind dfg.OpKind) []int {
	var out []int
	for pe := 0; pe < c.NumPEs(); pe++ {
		if !c.PEOk(pe) || !c.Supports(pe, kind) {
			continue
		}
		if kind.IsMem() && (!c.MemPEOk(pe) || !c.RowBusOK(c.RowOf(pe))) {
			continue
		}
		out = append(out, pe)
	}
	return out
}

// maxRegs is the largest register file on any healthy PE; it bounds how long
// any value can stay register-carried (span <= maxRegs*II).
func maxRegs(c *arch.CGRA) int {
	r := 0
	for pe := 0; pe < c.NumPEs(); pe++ {
		if c.PEOk(pe) && c.RegsAt(pe) > r {
			r = c.RegsAt(pe)
		}
	}
	return r
}

// build compiles the mapping decision problem at the given II into s, which
// it resets (only when the problem gets that far) and stores as p.s.
// spanCap restricts the per-segment span the encoding admits; anything below
// the absolute maximum maxRegs(c)*ii makes the formula a restriction whose
// models are still legal mappings but whose UNSAT verdicts are not certified
// — solveAtII runs a ladder of caps and only trusts UNSAT at the full cap.
// build polls ctx before each node's and each edge's encoding and before
// each later phase, and returns buildCancelled at the first poll that finds
// it done; it adds no clause before the first.
func build(ctx context.Context, s *sat.Solver, d *dfg.DFG, c *arch.CGRA, ii int, opts Options, spanCap int) (*problem, buildStatus) {
	p := &problem{d: d, c: c, ii: ii, hops: opts.routeHops(), fanVar: map[[2]int]int{}}
	if ctx.Err() != nil {
		return p, buildCancelled
	}
	p.rmax = maxRegs(c)
	p.maxSpan = p.rmax * ii
	if spanCap > 0 && spanCap < p.maxSpan {
		p.maxSpan = spanCap
	}
	if p.maxSpan < 1 {
		p.maxSpan = 1
	}

	win, ok := computeWindows(d, ii, p.maxSpan, p.hops)
	if !ok {
		return p, buildUnsat
	}

	// Real nodes.
	p.nodes = make([]enode, 0, d.N())
	for v, nd := range d.Nodes {
		allowed := allowedPEs(c, nd.Kind)
		if len(allowed) == 0 {
			p.badNode = v
			return p, buildUnmappable
		}
		p.nodes = append(p.nodes, enode{kind: nd.Kind, win: win[v], allowed: allowed, act: -1})
	}

	// Optional route hops per edge, sharing one window wide enough for any
	// chain position: after the producer fires, before the consumer reads.
	routePEs := allowedPEs(c, dfg.Route)
	p.hopNodes = make([][]int, len(d.Edges))
	p.actVars = make([][]int, len(d.Edges))
	for ei, e := range d.Edges {
		if p.hops == 0 || len(routePEs) == 0 {
			continue
		}
		hw := window{win[e.From].Lo + 1 - ii*e.Dist, win[e.To].Hi - 1}
		if hw.Lo > hw.Hi {
			continue
		}
		for j := 0; j < p.hops; j++ {
			p.hopNodes[ei] = append(p.hopNodes[ei], len(p.nodes))
			p.nodes = append(p.nodes, enode{kind: dfg.Route, win: hw, allowed: routePEs})
		}
	}

	// Size guard: the time-point count dominates variables and clauses.
	points := 0
	for i := range p.nodes {
		points += p.nodes[i].win.width()
	}
	if points > opts.maxPoints() {
		return p, buildTooLarge
	}

	s.Reset(sat.Options{
		Seed:         opts.Seed,
		LubyUnit:     opts.LubyUnit,
		MaxConflicts: opts.maxConflicts(),
		CheckEvery:   solveCheckEvery,
	})
	p.s = s

	// Activation ladders (A_{j+1} → A_j), biased off so un-routed models
	// decode canonically, then per-node machinery.
	for ei := range d.Edges {
		for j, hi := range p.hopNodes[ei] {
			a := p.s.NewVar()
			p.s.SetPhase(a, false)
			p.nodes[hi].act = a
			p.actVars[ei] = append(p.actVars[ei], a)
			if j > 0 {
				p.s.AddClause(sat.Neg(a), sat.Pos(p.actVars[ei][j-1]))
			}
		}
	}
	for i := range p.nodes {
		if ctx.Err() != nil {
			return p, buildCancelled
		}
		p.buildNodeVars(i)
	}

	p.cVar = make([][]int, len(p.nodes))
	for i := range p.cVar {
		p.cVar[i] = make([]int, p.rmax)
		for k := range p.cVar[i] {
			p.cVar[i][k] = -1
		}
	}
	p.fanTo = make([][]int, len(p.nodes))

	// Dependence segments.
	for ei, e := range d.Edges {
		if ctx.Err() != nil {
			return p, buildCancelled
		}
		p.buildEdge(ei, e)
	}
	for _, phase := range []func(){p.buildOccupancy, p.buildBuses, p.buildPressure, p.buildFanout} {
		if ctx.Err() != nil {
			return p, buildCancelled
		}
		phase()
	}
	return p, buildOK
}

// buildNodeVars creates one node's PE one-hot, order-encoded time, and
// channeled slot variables. Inactive hops are pinned to their first allowed
// PE and earliest time so decoding is deterministic.
func (p *problem) buildNodeVars(ni int) {
	nd := &p.nodes[ni]
	nd.pVar = make([]int, len(nd.allowed))
	lits := make([]sat.Lit, len(nd.allowed))
	for i := range nd.allowed {
		nd.pVar[i] = p.s.NewVar()
		lits[i] = sat.Pos(nd.pVar[i])
	}
	p.atMostOne(lits)
	ms := make([]ml, 0, len(lits)+1)
	if nd.act >= 0 {
		ms = append(ms, mv(sat.Neg(nd.act)))
	}
	for _, l := range lits {
		ms = append(ms, mv(l))
	}
	p.clause(ms...) // at least one PE (when active)
	if nd.act >= 0 {
		p.clause(mv(sat.Pos(nd.act)), mv(sat.Pos(nd.pVar[0])))
	}

	w := nd.win.width()
	nd.gVar = make([]int, w-1)
	for i := range nd.gVar {
		nd.gVar[i] = p.s.NewVar()
		if i > 0 {
			p.s.AddClause(sat.Neg(nd.gVar[i]), sat.Pos(nd.gVar[i-1]))
		}
	}
	if nd.act >= 0 && len(nd.gVar) > 0 {
		p.clause(mv(sat.Pos(nd.act)), mv(sat.Neg(nd.gVar[0])))
	}

	nd.sVar = make([]int, p.ii)
	for i := range nd.sVar {
		nd.sVar[i] = -1
	}
	for t := nd.win.Lo; t <= nd.win.Hi; t++ {
		if s := p.mod(t); nd.sVar[s] < 0 {
			nd.sVar[s] = p.s.NewVar()
		}
	}
	for t := nd.win.Lo; t <= nd.win.Hi; t++ {
		// T == t (G[t] ∧ ¬G[t+1]) implies the slot var of t mod II.
		p.clause(mnot(p.ge(nd, t)), p.ge(nd, t+1), mv(sat.Pos(nd.sVar[p.mod(t)])))
	}
	var slits []sat.Lit
	for _, v := range nd.sVar {
		if v >= 0 {
			slits = append(slits, sat.Pos(v))
		}
	}
	p.atMostOne(slits)
}

// buildEdge lowers one DFG edge into its route-chain segments. With hop
// budget K the segments are: direct u→w (active iff no hop), u→h1 (iff A1),
// h_{j-1}→h_j (iff Aj), and h_j→w (iff exactly j hops active). The first
// segment of any pattern carries the edge's full loop distance, mirroring
// dfg.InsertRoute.
func (p *problem) buildEdge(ei int, e dfg.Edge) {
	hops := p.hopNodes[ei]
	acts := p.actVars[ei]
	add := func(x, y, dist int, cond []ml) {
		p.subs = append(p.subs, subedge{x: x, y: y, dist: dist, cond: cond, ge: map[int]int{}})
		p.emitSubedge(len(p.subs) - 1)
	}
	if len(hops) == 0 {
		add(e.From, e.To, e.Dist, nil)
		return
	}
	// Direct segment, disabled once any hop activates.
	add(e.From, e.To, e.Dist, []ml{mv(sat.Pos(acts[0]))})
	for j, h := range hops {
		if j == 0 {
			add(e.From, h, e.Dist, []ml{mv(sat.Neg(acts[0]))})
		} else {
			add(hops[j-1], h, 0, []ml{mv(sat.Neg(acts[j]))})
		}
		// h is the last active hop: h → consumer.
		cond := []ml{mv(sat.Neg(acts[j]))}
		if j+1 < len(acts) {
			cond = append(cond, mv(sat.Pos(acts[j+1])))
		}
		add(h, e.To, 0, cond)
	}
}

// sclause emits a clause guarded by the subedge's activation condition.
func (p *problem) sclause(se *subedge, ms ...ml) {
	p.guarded = append(append(p.guarded[:0], se.cond...), ms...)
	p.clause(p.guarded...)
}

// spanGE returns (creating on first use) the variable equivalent, when the
// segment is active, to "span(segment) >= theta" where span = T[y] - T[x] +
// II*dist. Both implication directions are encoded over the order encoding.
func (p *problem) spanGE(si, theta int) sat.Lit {
	se := &p.subs[si]
	if v, ok := se.ge[theta]; ok {
		return sat.Pos(v)
	}
	v := p.s.NewVar()
	se.ge[theta] = v
	se.geTh = append(se.geTh, theta)
	x, y := &p.nodes[se.x], &p.nodes[se.y]
	off := theta - p.ii*se.dist
	for a := x.win.Lo; a <= x.win.Hi; a++ {
		// v ∧ T[x]>=a → T[y] >= a+off
		p.sclause(se, mv(sat.Neg(v)), mnot(p.ge(x, a)), p.ge(y, a+off))
	}
	for b := y.win.Lo; b <= y.win.Hi; b++ {
		// ¬v ∧ T[y]>=b → T[x] >= b-(off-1)   (span <= theta-1)
		p.sclause(se, mv(sat.Pos(v)), mnot(p.ge(y, b)), p.ge(x, b-off+1))
	}
	return sat.Pos(v)
}

// emitSubedge lowers one segment's precedence, span cap, adjacency,
// register-carry, and register-cost constraints.
func (p *problem) emitSubedge(si int) {
	se := &p.subs[si]
	x, y := &p.nodes[se.x], &p.nodes[se.y]
	// Precedence: span >= 1, i.e. T[y] >= T[x] + 1 - II*dist.
	off := 1 - p.ii*se.dist
	for a := x.win.Lo; a <= x.win.Hi; a++ {
		p.sclause(se, mnot(p.ge(x, a)), p.ge(y, a+off))
	}
	// Span cap: span <= maxSpan (a register cannot hold a value longer than
	// the file allows; see DESIGN.md 8k for why this cap is WLOG).
	for b := y.win.Lo; b <= y.win.Hi; b++ {
		p.sclause(se, mnot(p.ge(y, b)), p.ge(x, b+p.ii*se.dist-p.maxSpan))
	}
	// ge2 ⇔ span >= 2; ¬ge2 means span == 1 (an adjacency hop), ge2 means a
	// register-carried value that cannot leave the producer's PE.
	ge2 := p.spanGE(si, 2)
	se = &p.subs[si] // spanGE may have grown p.subs' backing array
	x, y = &p.nodes[se.x], &p.nodes[se.y]
	for i, pe := range x.allowed {
		px := sat.Pos(x.pVar[i])
		// span==1 → consumer on a connected (or same) PE.
		p.ms = append(p.ms[:0], mv(ge2), mv(px.Not()))
		for j, qe := range y.allowed {
			if p.c.Connected(pe, qe) {
				p.ms = append(p.ms, mv(sat.Pos(y.pVar[j])))
			}
		}
		p.sclause(se, p.ms...)
		// span>=2 → same PE.
		p.ms = append(p.ms[:0], mv(ge2.Not()), mv(px.Not()))
		if j := indexOf(y.allowed, pe); j >= 0 {
			p.ms = append(p.ms, mv(sat.Pos(y.pVar[j])))
		}
		p.sclause(se, p.ms...)
	}
	// Register cost: span >= θ_k pushes the producer's cost-k literal.
	for k := 1; k <= p.rmax; k++ {
		theta := (k-1)*p.ii + 1
		if k == 1 {
			theta = 2
		}
		if theta > p.maxSpan || theta > y.win.Hi-x.win.Lo+p.ii*se.dist {
			break
		}
		cv := p.cVar[se.x][k-1]
		if cv < 0 {
			cv = p.s.NewVar()
			p.cVar[se.x][k-1] = cv
		}
		g := p.spanGE(si, theta)
		se = &p.subs[si]
		p.sclause(se, mv(g.Not()), mv(sat.Pos(cv)))
	}
	p.emitFanoutRead(si)
}

// emitFanoutRead forces the (producer, consumer) remote-read indicator when
// this segment is a one-cycle hop across PEs; buildFanout later caps the
// indicators per producer.
func (p *problem) emitFanoutRead(si int) {
	if p.c.Fanout() <= 0 {
		return
	}
	se := &p.subs[si]
	x, y := &p.nodes[se.x], &p.nodes[se.y]
	key := [2]int{se.x, se.y}
	rv, ok := p.fanVar[key]
	if !ok {
		rv = p.s.NewVar()
		p.fanVar[key] = rv
		p.fanTo[se.x] = append(p.fanTo[se.x], se.y)
	}
	// Same-PE indicator exempts the read; sp → producer and consumer share
	// a PE, so a true sp never hides a genuine remote read.
	shareable := false
	for _, pe := range x.allowed {
		if indexOf(y.allowed, pe) >= 0 {
			shareable = true
			break
		}
	}
	ge2 := p.spanGE(si, 2)
	se = &p.subs[si]
	x, y = &p.nodes[se.x], &p.nodes[se.y]
	if !shareable {
		p.sclause(se, mv(ge2), mv(sat.Pos(rv)))
		return
	}
	sp := p.s.NewVar()
	for i, pe := range x.allowed {
		p.ms = append(p.ms[:0], mv(sat.Neg(sp)), mv(sat.Neg(x.pVar[i])))
		if j := indexOf(y.allowed, pe); j >= 0 {
			p.ms = append(p.ms, mv(sat.Pos(y.pVar[j])))
		}
		p.clause(p.ms...)
	}
	p.sclause(se, mv(ge2), mv(sat.Pos(sp)), mv(sat.Pos(rv)))
}

// buildOccupancy enforces at most one active operation per (PE, slot).
func (p *problem) buildOccupancy() {
	type cand struct{ node, pIdx, slot int }
	byCell := make([][]cand, p.c.NumPEs()*p.ii)
	for ni := range p.nodes {
		nd := &p.nodes[ni]
		for i, pe := range nd.allowed {
			for s := 0; s < p.ii; s++ {
				if nd.sVar[s] >= 0 {
					byCell[pe*p.ii+s] = append(byCell[pe*p.ii+s], cand{ni, i, s})
				}
			}
		}
	}
	for _, cs := range byCell {
		if len(cs) < 2 {
			continue
		}
		lits := make([]sat.Lit, len(cs))
		for i, cd := range cs {
			nd := &p.nodes[cd.node]
			o := p.s.NewVar()
			lits[i] = sat.Pos(o)
			p.ms = p.ms[:0]
			if nd.act >= 0 {
				p.ms = append(p.ms, mv(sat.Neg(nd.act)))
			}
			p.ms = append(p.ms,
				mv(sat.Neg(nd.pVar[cd.pIdx])),
				mv(sat.Neg(nd.sVar[cd.slot])),
				mv(sat.Pos(o)))
			p.clause(p.ms...)
		}
		p.atMostOne(lits)
	}
}

// buildBuses caps concurrent memory operations per (bus group, slot).
func (p *problem) buildBuses() {
	type cand struct {
		node int
		pes  []int // allowed indices within the group
	}
	groups := p.c.NumBusGroups()
	byCell := make([][]cand, groups*p.ii)
	for ni := range p.d.Nodes {
		nd := &p.nodes[ni]
		if !nd.kind.IsMem() {
			continue
		}
		inGroup := make([][]int, groups)
		for i, pe := range nd.allowed {
			g := p.c.BusGroupOf(pe)
			inGroup[g] = append(inGroup[g], i)
		}
		for g, idxs := range inGroup {
			if len(idxs) == 0 {
				continue
			}
			for s := 0; s < p.ii; s++ {
				if nd.sVar[s] >= 0 {
					byCell[g*p.ii+s] = append(byCell[g*p.ii+s], cand{ni, idxs})
				}
			}
		}
	}
	for cell, cs := range byCell {
		g := cell / p.ii
		s := cell % p.ii
		cap := p.c.BusGroupCap(g)
		if len(cs) <= cap {
			continue
		}
		lits := make([]sat.Lit, len(cs))
		for i, cd := range cs {
			nd := &p.nodes[cd.node]
			b := p.s.NewVar()
			lits[i] = sat.Pos(b)
			for _, pi := range cd.pes {
				p.clause(mv(sat.Neg(nd.pVar[pi])), mv(sat.Neg(nd.sVar[s])), mv(sat.Pos(b)))
			}
		}
		p.atMostK(lits, cap)
	}
}

// buildPressure caps per-PE rotating-register demand: each node assigned to
// PE with cost >= k contributes one unit per k, and the per-PE sum of units
// stays within RegsAt.
func (p *problem) buildPressure() {
	byPE := make([][]sat.Lit, p.c.NumPEs())
	for ni := range p.nodes {
		nd := &p.nodes[ni]
		for k := 1; k <= p.rmax; k++ {
			cv := p.cVar[ni][k-1]
			if cv < 0 {
				continue
			}
			for i, pe := range nd.allowed {
				cp := p.s.NewVar()
				p.s.AddClause(sat.Neg(cv), sat.Neg(nd.pVar[i]), sat.Pos(cp))
				byPE[pe] = append(byPE[pe], sat.Pos(cp))
			}
		}
	}
	for pe, lits := range byPE {
		p.atMostK(lits, p.c.RegsAt(pe))
	}
}

// buildFanout caps distinct remote same-cycle readers per producer.
func (p *problem) buildFanout() {
	fo := p.c.Fanout()
	if fo <= 0 {
		return
	}
	for ni, consumers := range p.fanTo {
		if len(consumers) <= fo {
			continue
		}
		lits := make([]sat.Lit, len(consumers))
		for i, y := range consumers {
			lits[i] = sat.Pos(p.fanVar[[2]int{ni, y}])
		}
		p.atMostK(lits, fo)
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
