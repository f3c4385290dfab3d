package core

import (
	"context"
	"math"
	"sort"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/dfg"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/sched"
)

// Attempt is the mutable state of one fixed-II mapping attempt — the value
// the pipeline passes communicate through. Each II escalation starts from a
// fresh Attempt; within an II, the learning passes mutate it (preferred
// operations, inserted routing nodes, thinned width) and the schedule pass
// reads those mutations on the next round.
//
// The passes, in driver order (see mapAtII):
//
//	PassSchedule  — produce the next candidate modulo schedule
//	PassPrecheck  — reject doomed schedules before paying for placement
//	PassCompat    — build (incrementally) the compatibility graph
//	PassPlace     — clique search; assemble the mapping on full placement
//	PassLearn     — learn from a partial placement: reschedule, relax, thin
//	PassRelax     — the stronger learning moves, also reachable via precheck
//
// Each is independently testable (see pipeline_test.go); the driver owns the
// round budget and context checks.
type Attempt struct {
	d  *dfg.DFG // original kernel
	ds *dfg.DFG // work DFG (route nodes may be inserted)
	c  *arch.CGRA
	sc *sched.Scheduler
	ii int

	opts  Options
	stats *Stats
	tr    *obs.Tracer

	pes     int // usable PEs (== NumPEs on a healthy array)
	memRows int // usable memory rows (== Rows on a healthy array)

	width        int
	routeBudget  int
	reserve      int // extra insertions granted to nearly-complete placements
	bestUnplaced int // the paper's N: best |V_Ds - V_C| so far
	stall        int // consecutive non-improving placement attempts
	prefer       []int
	prevSchedule *sched.Result
	prevUnplaced []int
	seen         map[string]bool // schedules already placed (and failed)

	cb      *CompatBuilder // the Map call's compat builder (see PassCompat)
	cbFor   *dfg.DFG       // the DFG cb was last reset for at this II (nil: not yet)
	cbNodes int            // node count cb was sized for (in-place growth invalidates)
}

// NewAttempt prepares the pipeline state for one II.
func NewAttempt(d *dfg.DFG, c *arch.CGRA, ii int, opts Options, stats *Stats, tr *obs.Tracer) *Attempt {
	pes, memRows := c.MIIResources()
	return &Attempt{
		d: d, ds: d, c: c,
		sc:           sched.New(d, pes, memRows),
		ii:           ii,
		opts:         opts,
		stats:        stats,
		tr:           tr,
		pes:          pes,
		memRows:      memRows,
		width:        pes,
		routeBudget:  routeBudgetFor(d.N()),
		reserve:      8,
		bestUnplaced: math.MaxInt,
		seen:         map[string]bool{},
	}
}

// II returns the initiation interval this attempt maps at.
func (a *Attempt) II() int { return a.ii }

// WorkDFG returns the (possibly route-extended) DFG the attempt currently
// schedules and places.
func (a *Attempt) WorkDFG() *dfg.DFG { return a.ds }

// Width returns the current schedule width (thinning shrinks it).
func (a *Attempt) Width() int { return a.width }

// PassSchedule produces the next candidate schedule, trying the local-repair
// variants before a full reschedule (see scheduleNext). It returns nil when
// the kernel is unschedulable at the current width — the signal to escalate
// II.
func (a *Attempt) PassSchedule() *sched.Result {
	sp := a.tr.Start("pass.schedule")
	res := scheduleNext(a.sc, a.ds, a.ii, a.width, a.prefer, a.prevSchedule, a.prevUnplaced, a.width, a.seen, a.tr)
	if res != nil {
		sp.Field("length", int64(res.Length))
	}
	sp.Field("width", int64(a.width))
	sp.FieldBool("ok", res != nil)
	sp.End()
	return res
}

// PassPrecheck vets a schedule before the expensive passes. It returns
// proceed=true when the schedule is worth placing; otherwise skip holds the
// operation set the relaxation pass should work on:
//
//   - a schedule already placed (and failed) would fail identically, so the
//     previous round's unplaced set is relaxed instead;
//   - a register-carried component larger than II can never share a PE
//     (whatever the clique search does), so its members are relaxed — unless
//     learning is disabled, in which case the doomed placement is allowed to
//     fail on its own, mirroring the exploratory mappers of the ablation.
func (a *Attempt) PassPrecheck(res *sched.Result) (skip []int, proceed bool) {
	key := scheduleKey(a.width, res)
	if a.seen[key] {
		a.tr.Point1("pass.precheck", "dup", 1)
		return a.prevUnplaced, false
	}
	a.seen[key] = true
	if overflow := overflowComponent(a.ds, res, a.ii); overflow != nil && !a.opts.DisableReschedule {
		a.tr.Point1("pass.precheck", "overflow", int64(len(overflow)))
		return overflow, false
	}
	return nil, true
}

// PassCompat returns the compatibility graph for the schedule, building it
// incrementally: the builder persists across rounds at this II and only
// rebuilds the rows of rescheduled operations. Structural learning moves
// (route insertion, recomputation) grow the work DFG — sometimes by mutating
// the already-cloned DFG in place — so the builder is reset both on identity
// change and on node-count change, and its graph with it.
//
// One builder serves the whole Map call (mapAtII hands it over), reset in
// place for every II and every grown work DFG, so its adjacency slab is
// allocated a few times per call rather than once per reset. The searches
// draw their arenas from the builder's graph, which drops them when a reset
// changes the node count.
func (a *Attempt) PassCompat(res *sched.Result) (*Compat, error) {
	sp := a.tr.Start("pass.compat")
	if a.cb == nil {
		a.cb = new(CompatBuilder)
	}
	if a.cbFor != a.ds || a.cbNodes != a.ds.N() {
		if err := a.cb.Reset(a.ds, a.c, a.ii, a.opts.Compat); err != nil {
			sp.FieldBool("ok", false)
			sp.End()
			return nil, err
		}
		a.cbFor, a.cbNodes = a.ds, a.ds.N()
	}
	cg, err := a.cb.Build(res.Time)
	if err == nil {
		a.stats.CompatNodes = cg.Nodes()
		a.stats.CompatEdges = cg.Edges()
		sp.Field("nodes", int64(cg.Nodes()))
		sp.Field("edges", int64(a.stats.CompatEdges))
	}
	sp.End()
	return cg, err
}

// PassPlace runs the clique search over the compatibility graph. On a full
// placement it assembles and returns the mapping; otherwise it returns nil
// and the operations left unplaced (the paper's V_Ds − V_C). A cancelled
// ctx starts no further placement pass.
func (a *Attempt) PassPlace(ctx context.Context, cg *Compat, res *sched.Result) (*mapping.Mapping, []int) {
	sp := a.tr.Start("pass.clique")
	sol := findPlacement(ctx, cg, res.Time, a.opts.Clique, a.tr)
	sp.Field("placed", int64(len(sol)))
	sp.Field("target", int64(a.ds.N()))
	sp.End()
	if len(sol) == a.ds.N() {
		m := mapping.New(a.ds, a.c, a.ii)
		copy(m.Time, res.Time)
		for _, id := range sol {
			m.PE[cg.Pairs[id].Op] = cg.Pairs[id].PE
		}
		return m, nil
	}
	return nil, unplacedOps(a.ds.N(), cg, sol)
}

// PassLearn reacts to a partial placement — the paper's learn-from-failure
// loop. While the unplaced set keeps shrinking, the cheap move is taken:
// reschedule with the unplaced operations first (the next PassSchedule reads
// the preference). After a few non-improving rounds it reaches for PassRelax.
// It returns false when learning is exhausted and II must escalate.
func (a *Attempt) PassLearn(res *sched.Result, unplaced []int) bool {
	if len(unplaced) >= a.bestUnplaced {
		// Give the cheap rescheduling moves a little patience before
		// reaching for the structural relaxations.
		a.stall++
		if a.stall >= 3 {
			return a.PassRelax(res, unplaced)
		}
	} else {
		a.bestUnplaced = len(unplaced)
		a.stall = 0
	}
	// Learning move 1: reschedule with the unplaced operations first.
	a.stats.Reschedules++
	a.tr.Point1("pass.learn", "reschedule", 1)
	a.prefer = unplaced
	a.prevSchedule = res
	a.prevUnplaced = unplaced
	return true
}

// PassRelax applies the stronger learning moves when rescheduling stopped
// converging: first relax the routing problem — shrink over-connected
// fan-outs, split a register-bound edge with a Route node (Appendix E), or
// clone a recomputable load — then thin the schedule width. It returns false
// when both are exhausted and II must escalate.
func (a *Attempt) PassRelax(res *sched.Result, unplaced []int) bool {
	sp := a.tr.Start("pass.learn")
	routes := a.stats.RouteInserts + a.stats.Recomputes
	thins := a.stats.Thinnings
	ok := a.relaxOrThin(res, unplaced)
	sp.Field("inserts", int64(a.stats.RouteInserts+a.stats.Recomputes-routes))
	sp.Field("thins", int64(a.stats.Thinnings-thins))
	sp.FieldBool("ok", ok)
	sp.End()
	return ok
}

// reset clears the per-schedule learning state after a structural change
// (route insertion or thinning).
func (a *Attempt) reset() {
	a.prefer, a.prevSchedule, a.prevUnplaced = nil, nil, nil
	a.bestUnplaced = math.MaxInt
}

// relaxOrThin is PassRelax's engine: route-insertion relaxations first, then
// thinning, false when out of moves.
func (a *Attempt) relaxOrThin(res *sched.Result, unplaced []int) bool {
	opts, stats := a.opts, a.stats
	a.stall = 0
	budget := a.routeBudget
	if budget < 0 {
		budget = 0
	}
	if len(unplaced) > 0 && len(unplaced) <= 2 && a.reserve > 0 {
		budget++ // endgame reserve: a nearly-complete placement earns extra relaxation
		a.reserve--
	}
	if !opts.DisableRouteInsertion && budget > 0 {
		changed := false
		// First shrink over-connected values: a producer whose fan-out
		// exceeds the mesh degree can never deliver all copies directly, so
		// half of its consumers are moved behind a Route node (a fan-out
		// tree, the transformation behind the paper's path sharing).
		if fanouts := fanoutProducers(a.ds, unplaced, meshDegree(a.c)); len(fanouts) > 0 {
			if a.ds == a.d {
				a.ds = a.d.Clone()
			}
			for _, v := range fanouts {
				if budget == 0 {
					break
				}
				splitHalfFanout(a.ds, v, res, a.ii)
				budget--
				a.routeBudget--
				stats.RouteInserts++
				changed = true
			}
		}
		if !changed {
			edges := registerBoundEdges(a.ds, res, a.ii, unplaced)
			if len(edges) > 3 {
				edges = edges[:3] // relax gently; each node enlarges the search
			}
			if len(edges) > 0 {
				if a.ds == a.d {
					a.ds = a.d.Clone()
				}
				for _, ei := range edges {
					if budget == 0 {
						break
					}
					a.ds.InsertRoute(ei)
					budget--
					a.routeBudget--
					stats.RouteInserts++
					changed = true
				}
			}
		}
		if !changed {
			// Recomputation (paper Section 3, Figure 4a): when no edge can
			// be routed around, clone an unplaced multi-consumer load so
			// each copy serves part of the fan-out — re-reading memory is
			// cheaper than carrying the value.
			if v, edges := recomputableLoad(a.ds, res, a.ii, unplaced); v >= 0 && budget > 0 {
				if a.ds == a.d {
					a.ds = a.d.Clone()
				}
				a.ds.Duplicate(v, edges)
				budget--
				a.routeBudget--
				stats.Recomputes++
				changed = true
			}
		}
		if changed {
			a.sc = sched.New(a.ds, a.pes, a.memRows)
			a.reset()
			return true
		}
	}
	if !opts.DisableThinning {
		a.width--
		stats.Thinnings++
		if a.width < ceilDiv(a.ds.N(), a.ii) {
			return false // thinning would force a larger II: escalate
		}
		a.reset()
		return true
	}
	return false
}

// routeBudgetFor caps routing-node insertions per II attempt: generous for
// small kernels, bounded for large ones so the work DFG cannot snowball
// (every insertion enlarges the compatibility graph the clique search pays
// for).
func routeBudgetFor(n int) int {
	if n < 12 {
		return 2 * n
	}
	if n > 24 {
		return 24
	}
	return n
}

// findPlacement runs the clique search as an ordered list of placement
// passes: the group-aware constructive pass under three orders (one
// candidate per operation), then the paper's generic
// greedy/swap/intersection heuristic. times is the schedule of every
// operation. The first pass that places every operation wins; when none
// does, the largest partial placement wins, the earlier pass breaking ties.
// A cancelled ctx starts no further pass.
func findPlacement(ctx context.Context, cg *Compat, times []int, opts clique.Options, tr *obs.Tracer) []int {
	target := len(times)
	passes := []func() []int{
		// Schedule order, so each operation lands next to its already-
		// placed producers (cluster growth); the promote-on-failure
		// rounds still reorder the stragglers.
		func() []int { return clique.FindGrouped(cg.G, cg.gx, scheduleOrder(times), opts, tr) },
		// Depth-first dataflow order, so chains (address streams, reduction
		// spines) are placed contiguously and can fold onto one PE across
		// consecutive slots.
		func() []int { return clique.FindGrouped(cg.G, cg.gx, dfsOrder(cg.d), opts, tr) },
		// Most-constrained-first order (FindGrouped's default).
		func() []int { return clique.FindGrouped(cg.G, cg.gx, nil, opts, tr) },
	}
	// The generic greedy/swap/intersection heuristic explores more of the
	// graph but scales with its square; beyond a few hundred nodes the
	// grouped passes plus the outer learning loop are the better use of time.
	if cg.Nodes() <= 384 {
		passes = append(passes, func() []int { return clique.Find(cg.G, target, opts, tr) })
	}
	var sol []int
	for _, pass := range passes {
		if ctx.Err() != nil {
			break
		}
		alt := pass()
		if len(alt) >= target {
			return alt
		}
		if len(alt) > len(sol) {
			sol = alt
		}
	}
	return sol
}

// scheduleOrder returns the operations sorted by schedule time, id breaking
// ties.
func scheduleOrder(times []int) []int {
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if times[order[i]] != times[order[j]] {
			return times[order[i]] < times[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// dfsOrder returns the operations in depth-first dataflow order, starting
// from the highest-degree roots, so connected chains appear consecutively.
func dfsOrder(d *dfg.DFG) []int {
	roots := make([]int, d.N())
	for i := range roots {
		roots[i] = i
	}
	deg := func(v int) int { return len(d.InEdges(v)) + len(d.OutEdges(v)) }
	sort.SliceStable(roots, func(i, j int) bool {
		if deg(roots[i]) != deg(roots[j]) {
			return deg(roots[i]) > deg(roots[j])
		}
		return roots[i] < roots[j]
	})
	seen := make([]bool, d.N())
	order := make([]int, 0, d.N())
	var visit func(v int)
	visit = func(v int) {
		if seen[v] {
			return
		}
		seen[v] = true
		order = append(order, v)
		for _, ei := range d.OutEdges(v) {
			visit(d.Edges[ei].To)
		}
		for _, ei := range d.InEdges(v) {
			visit(d.Edges[ei].From)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return order
}

// unplacedOps returns the operations with no binding in the clique solution.
func unplacedOps(n int, cg *Compat, sol []int) []int {
	placed := make([]bool, n)
	for _, id := range sol {
		placed[cg.Pairs[id].Op] = true
	}
	var out []int
	for v := 0; v < n; v++ {
		if !placed[v] {
			out = append(out, v)
		}
	}
	return out
}
