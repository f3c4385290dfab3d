// Package dresc re-implements the paper's comparison baseline: DRESC-style
// register-aware placement and routing by simulated annealing over the
// modulo routing resource graph (De Sutter et al., LCTES'08, as characterized
// in the REGIMap paper Section 2):
//
//   - the time-extended CGRA is expanded so output registers and register
//     files appear as explicit capacity-bearing nodes (arch.MRRG);
//   - operations start from a modulo schedule and are randomly moved in the
//     time and resource dimensions;
//   - every data dependence is routed through the MRRG with a congestion-
//     aware shortest path; the cost of a configuration is its total resource
//     overuse;
//   - moves are accepted by the Metropolis criterion under geometric
//     cooling ("no control strategy, e.g. the temperature schedule, is
//     derived" — the paper's point that the baseline is untuned exploration);
//   - when the annealing budget expires with overuse remaining, II is
//     increased and the mapping restarted.
//
// The implementation is deterministic for a fixed Options.Seed: with
// Restarts <= 1 a single RNG is threaded across the II escalation (the
// legacy behaviour the golden suite pins); with Restarts = K > 1, K
// independent seed-derived annealing chains race per II over a worker pool
// and the lowest chain index that reaches zero overuse wins, so the result
// depends on (Seed, Restarts) but never on Workers (DESIGN.md section 8h).
package dresc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/maperr"
	"regimap/internal/obs"
	"regimap/internal/par"
	"regimap/internal/sched"
)

// Failure taxonomy (regimap/internal/maperr), re-exported for callers:
// errors.Is(err, dresc.ErrNoMapping), errors.Is(err, dresc.ErrAborted), and
// errors.As with *dresc.InvalidMappingError all work on Map's errors.
var (
	ErrNoMapping = maperr.ErrNoMapping
	ErrAborted   = maperr.ErrAborted
)

// InvalidMappingError reports a mapper-internal bug: a produced placement
// that fails its own verification.
type InvalidMappingError = maperr.InvalidMappingError

// One annealing run starts at initialTemperature for the Metropolis
// criterion and ends once the temperature falls to minTemperature.
const (
	initialTemperature = 4.0
	minTemperature     = 0.05
)

// Options configures the annealer. Zero values select the defaults used in
// the experiments.
type Options struct {
	// Seed drives all stochastic decisions (0 is a valid seed). There is no
	// other randomness: two runs with equal options are identical.
	Seed int64
	// MinII raises the II the escalation starts from (0: MII).
	MinII int
	// MaxII caps II escalation (0: MII + 8).
	MaxII int
	// MovesPerTemperature scales the Metropolis sweeps (0: 24|V|).
	MovesPerTemperature int
	// Cooling is the geometric temperature factor (0: 0.92).
	Cooling float64
	// Restarts is the number of independent annealing chains raced per II
	// (0 or 1: a single chain threading one RNG across the II escalation —
	// the legacy behaviour). Each chain's RNG is derived from (Seed, II,
	// chain index); the lowest chain index that reaches zero overuse wins,
	// so the mapping depends on Restarts but not on Workers.
	Restarts int
	// Workers caps the goroutines racing restart chains (0: GOMAXPROCS,
	// clamped to Restarts). It affects wall-clock only, never the result.
	Workers int
}

// Stats reports the outcome.
type Stats struct {
	MII     int
	II      int // achieved II (0 on failure)
	Moves   int // annealing moves evaluated
	Accepts int
	Elapsed time.Duration
}

// Perf returns MII/II, the paper's performance metric (0 on failure).
func (s *Stats) Perf() float64 {
	if s.II == 0 {
		return 0
	}
	return float64(s.MII) / float64(s.II)
}

// Placement is a complete DRESC solution: a binding of operations to FU
// nodes of the MRRG and a routed path per DFG edge.
type Placement struct {
	M     *arch.MRRG
	D     *dfg.DFG
	II    int
	Time  []int   // absolute schedule slot per op
	PE    []int   // PE per op
	Paths [][]int // MRRG node sequence per DFG edge (producer FU to consumer FU)
}

// Map runs DRESC on the kernel. It returns the placement of the first II at
// which annealing reaches zero overuse.
//
// Cancelling ctx aborts the search at the next annealing-epoch (temperature)
// boundary or II escalation, whichever comes first; the returned error wraps
// ctx.Err() when the abort was context-driven.
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*Placement, *Stats, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	tr := obs.From(ctx).Named("dresc", d.Name)
	pes, memRows := c.MIIResources()
	stats := &Stats{MII: d.MII(pes, memRows)}
	tr.Point1("mii", "mii", int64(stats.MII))
	done := func() {
		stats.Elapsed = time.Since(start)
		tr.Point("map.done", "ii", int64(stats.II), "mii", int64(stats.MII), "attempts", int64(stats.Moves))
	}
	if c.UsablePEs() == 0 {
		done()
		return nil, stats, maperr.NoMapping("dresc: no mapping for %s on %s: every PE is broken", d.Name, c)
	}
	maxII := opts.MaxII
	if maxII <= 0 {
		maxII = stats.MII + 8
	}
	startII := stats.MII
	if opts.MinII > startII {
		startII = opts.MinII
	}
	restarts := opts.Restarts
	if restarts < 1 {
		restarts = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > restarts {
		workers = restarts
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	inc := buildIncident(d)
	// One chain arena per worker slot, reused across chains and IIs; the
	// legacy single-chain path uses slot 0.
	states := make([]*state, workers)
	for i := range states {
		states[i] = &state{d: d, c: c, inc: inc}
	}
	for ii := startII; ii <= maxII; ii++ {
		if err := ctx.Err(); err != nil {
			done()
			return nil, stats, maperr.Aborted(err, "dresc: mapping %s aborted: %v", d.Name, err)
		}
		moves, accepts := stats.Moves, stats.Accepts
		sp := tr.Start("dresc.anneal")
		var p *Placement
		if restarts <= 1 {
			p = annealAtII(ctx, states[0], ii, opts, rng, stats)
		} else {
			// par.First replays "run chains 0..K-1 in order, stop at the first
			// success": chains at or below the winner always run to
			// completion, so merging stats over exactly those chains is
			// worker-count-invariant.
			results := make([]*Placement, restarts)
			chainStats := make([]Stats, restarts)
			won := par.First(ctx, restarts, workers, func(ctx context.Context, w, i int) bool {
				rng := rand.New(rand.NewSource(chainSeed(opts.Seed, ii, i)))
				results[i] = annealAtII(ctx, states[w], ii, opts, rng, &chainStats[i])
				return results[i] != nil
			})
			for i := 0; i <= won && i < restarts; i++ {
				stats.Moves += chainStats[i].Moves
				stats.Accepts += chainStats[i].Accepts
			}
			if won < restarts {
				p = results[won]
			}
		}
		sp.Field("ii", int64(ii))
		sp.Field("moves", int64(stats.Moves-moves))
		sp.Field("accepts", int64(stats.Accepts-accepts))
		sp.FieldBool("ok", p != nil)
		sp.End()
		if p != nil {
			stats.II = ii
			done()
			if err := p.Verify(c); err != nil {
				return nil, nil, &maperr.InvalidMappingError{Mapper: "dresc", What: "placement", Err: err}
			}
			return p, stats, nil
		}
	}
	done()
	if err := ctx.Err(); err != nil {
		return nil, stats, maperr.Aborted(err, "dresc: mapping %s aborted: %v", d.Name, err)
	}
	return nil, stats, maperr.NoMapping("dresc: no mapping for %s on %s up to II=%d", d.Name, c, maxII)
}

// chainSeed derives the RNG seed of one restart chain from (seed, ii, chain)
// with a splitmix64-style mix, so every chain explores independently and the
// set of chains is a pure function of Options — what makes the racing
// reduction reproducible at any worker count.
func chainSeed(seed int64, ii, chain int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(uint32(ii)) ^ 0xbf58476d1ce4e5b9*uint64(uint32(chain+1))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// state is one annealing chain's working configuration, arena-style: every
// buffer is reused across chains and II attempts (DESIGN.md section 8h).
type state struct {
	d   *dfg.DFG
	c   *arch.CGRA
	inc *incident
	m   *arch.MRRG
	ii  int

	time []int
	pe   []int
	path [][]int
	use  []int // usage per MRRG node
	over int   // total overuse (the SA cost)
	// unrouted counts nil paths so totalCost — consulted before every move —
	// is O(1) instead of a scan over every edge.
	unrouted int

	// scratch buffers reused by route and tryMove.
	dist, prev, stamp []int
	gen               int
	heapBuf           []heapItem
	rev               []int
	oldPaths          [][]int
	// pathPool recycles the []int backing arrays of replaced paths, making
	// the reroute-evaluate-restore cycle allocation-free in steady state.
	pathPool [][]int
}

// incident is the precomputed per-op list of incident edge indices (in-edges
// first, then non-self out-edges — the same dedup order the per-move
// map-based collection produced), shared read-only by every chain.
type incident struct {
	off []int
	buf []int
}

func buildIncident(d *dfg.DFG) *incident {
	inc := &incident{off: make([]int, d.N()+1)}
	for v := 0; v < d.N(); v++ {
		inc.off[v] = len(inc.buf)
		inc.buf = append(inc.buf, d.InEdges(v)...)
		for _, ei := range d.OutEdges(v) {
			if d.Edges[ei].To != v { // self-loops already collected as in-edges
				inc.buf = append(inc.buf, ei)
			}
		}
	}
	inc.off[d.N()] = len(inc.buf)
	return inc
}

func (s *state) incidentEdges(v int) []int {
	return s.inc.buf[s.inc.off[v]:s.inc.off[v+1]]
}

// resetForII rebinds the arena to a fresh chain at the given II: schedule
// times copied in, every path released to the pool, usage cleared.
func (s *state) resetForII(m *arch.MRRG, ii int, initTime []int) {
	s.m, s.ii = m, ii
	s.time = append(s.time[:0], initTime...)
	if cap(s.pe) < s.d.N() {
		s.pe = make([]int, s.d.N())
	}
	s.pe = s.pe[:s.d.N()]
	for i := range s.path {
		s.freePath(s.path[i])
		s.path[i] = nil
	}
	if cap(s.path) < len(s.d.Edges) {
		s.path = make([][]int, len(s.d.Edges))
	}
	s.path = s.path[:len(s.d.Edges)]
	for i := range s.path {
		s.path[i] = nil
	}
	if cap(s.use) < m.N() {
		s.use = make([]int, m.N())
	}
	s.use = s.use[:m.N()]
	for i := range s.use {
		s.use[i] = 0
	}
	s.over = 0
	s.unrouted = len(s.d.Edges)
}

func annealAtII(ctx context.Context, s *state, ii int, opts Options, rng *rand.Rand, stats *Stats) *Placement {
	// Initial modulo schedule (plain list schedule, no lifetime compaction —
	// the published DRESC discovers time placements through its own
	// annealing moves); placement starts random.
	pes, memRows := s.c.MIIResources()
	sc := sched.New(s.d, pes, memRows)
	res, err := sc.Schedule(ii, sched.Options{NoCompact: true})
	if err != nil {
		return nil
	}
	s.resetForII(arch.BuildMRRG(s.c, ii), ii, res.Time)
	for v := range s.pe {
		s.pe[v] = randomSupportingPE(s.c, s.d.Nodes[v].Kind, rng)
		s.occupyOp(v, +1)
	}
	for ei := range s.d.Edges {
		s.reroute(ei)
	}

	movesPerT := opts.MovesPerTemperature
	if movesPerT <= 0 {
		movesPerT = 24 * s.d.N()
	}
	cooling := opts.Cooling
	if cooling <= 0 {
		cooling = 0.92
	}

	bestCost := s.totalCost()
	stale := 0
	for temp := initialTemperature; temp > minTemperature; temp *= cooling {
		if ctx.Err() != nil {
			return nil // abort at the epoch boundary; Map reports the cause
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
		// Plateau abort: when the cost has not improved for several
		// consecutive temperatures this II will not converge; move on.
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

func randomSupportingPE(c *arch.CGRA, k dfg.OpKind, rng *rand.Rand) int {
	for tries := 0; tries < 4*c.NumPEs(); tries++ {
		p := rng.Intn(c.NumPEs())
		if c.Supports(p, k) {
			return p
		}
	}
	for p := 0; p < c.NumPEs(); p++ {
		if c.Supports(p, k) {
			return p
		}
	}
	return 0
}

// occupyOp adds (delta=+1) or removes (delta=-1) op v's own resources: its
// FU, the output register its result lands in (charged once here, not per
// consumer — all consumers share the one value), and for memory operations
// the row bus gate plus, on described bus schemes, the shared group node.
func (s *state) occupyOp(v, delta int) {
	slot := s.time[v] % s.ii
	s.addUse(s.m.FUNode(s.pe[v], slot), delta)
	if s.d.Nodes[v].Kind != dfg.Store && len(s.d.OutEdges(v)) > 0 {
		s.addUse(s.m.OutRegNode(s.pe[v], (slot+1)%s.ii), delta)
	}
	if s.d.Nodes[v].Kind.IsMem() {
		s.addUse(s.m.BusNode(s.c.RowOf(s.pe[v]), slot), delta)
		if s.m.HasBusGroups() {
			s.addUse(s.m.BusGroupNode(s.c.BusGroupOf(s.pe[v]), slot), delta)
		}
	}
}

func (s *state) addUse(node, delta int) {
	before := s.use[node]
	s.use[node] = before + delta
	cap := s.m.Cap(node)
	overBefore := maxInt(0, before-cap)
	overAfter := maxInt(0, s.use[node]-cap)
	s.over += overAfter - overBefore
}

// reroute recomputes edge ei's path with a congestion-aware search and
// installs its usage. An unroutable edge keeps an empty path and a fixed
// penalty. The replaced path's backing array is NOT pooled here — tryMove
// still holds it for reject-restore and frees it after the Metropolis
// decision.
const unroutablePenalty = 8

func (s *state) reroute(ei int) {
	if s.path[ei] != nil {
		for _, node := range pathOccupancy(s.path[ei]) {
			s.addUse(node, -1)
		}
		s.path[ei] = nil
		s.unrouted++
	}
	e := s.d.Edges[ei]
	src := s.m.OutRegNode(s.pe[e.From], (s.time[e.From]+1)%s.ii)
	dst := s.m.FUNode(s.pe[e.To], s.time[e.To]%s.ii)
	span := s.time[e.To] - s.time[e.From] + s.ii*e.Dist
	p := s.route(src, dst, span)
	s.path[ei] = p
	if p != nil {
		s.unrouted--
	}
	// The source out register is charged once by the producer (occupyOp);
	// only the intermediate hops are charged per connection. Intermediate
	// sharing between two sinks of one value is deliberately not deduplicated
	// — the paper notes path sharing "is not an explicit aspect of the
	// solution method" in DRESC.
	for _, node := range pathOccupancy(p) {
		s.addUse(node, +1)
	}
	// Unroutable edges carry a fixed penalty via totalCost.
}

// pathOccupancy returns the chargeable nodes of a route: everything after
// the producer-owned source out register.
func pathOccupancy(p []int) []int {
	if len(p) <= 1 {
		return nil
	}
	return p[1:]
}

func (s *state) allocPath(capHint int) []int {
	if k := len(s.pathPool); k > 0 {
		p := s.pathPool[k-1]
		s.pathPool = s.pathPool[:k-1]
		return p[:0]
	}
	return make([]int, 0, capHint)
}

func (s *state) freePath(p []int) {
	if cap(p) > 0 {
		s.pathPool = append(s.pathPool, p)
	}
}

// route finds a cheapest *time-exact* path over the MRRG with a binary-heap
// Dijkstra on (node, elapsed) states. The value leaves the producer's out
// register one cycle after execution (elapsed 1) and must enter the
// consumer's FU exactly span cycles after the producer executed — an MRRG
// hop into an OutReg or RF node advances one cycle, a hop into an FU is a
// same-cycle read. A path whose span exceeds II wraps around the modulo
// graph and revisits storage nodes, charging one capacity unit per live
// copy, which is exactly the rotating-register accounting. Entering a node
// costs 1 plus a congestion surcharge; the destination FU itself is not
// occupied by the route (the consumer op occupies it); the source out
// register is charged by the producer (occupyOp).
func (s *state) route(src, dst, span int) []int {
	if span < 1 {
		return nil
	}
	stride := span + 1
	states := s.m.N() * stride
	if len(s.dist) < states {
		s.dist = make([]int, states)
		s.prev = make([]int, states)
		s.stamp = make([]int, states)
		s.gen = 0
	}
	s.gen++
	dist, prev, stamp, gen := s.dist, s.prev, s.stamp, s.gen

	kind, capacity, out := s.m.Arrays()
	use := s.use
	start := src*stride + 1
	stamp[start] = gen
	dist[start] = s.nodeCost(src)
	prev[start] = -1
	h := nodeHeap{items: s.heapBuf[:0]}
	h.push(heapItem{node: start, dist: dist[start]})
	goal := dst*stride + span
	for h.len() > 0 {
		it := h.pop()
		if it.dist > dist[it.node] { // stale entry (it.node is always stamped)
			continue
		}
		if it.node == goal {
			break
		}
		node, elapsed := it.node/stride, it.node%stride
		for _, w := range out[node] {
			nextElapsed := elapsed
			isFU := kind[w] == arch.FU
			if !isFU {
				nextElapsed++ // storage hops advance time
			}
			if nextElapsed > span {
				continue
			}
			if isFU && w == dst && nextElapsed != span {
				// Reached the consumer too early: wrong iteration. An
				// intermediate FU (w != dst) is an explicit copy and passes.
				continue
			}
			ws := w*stride + nextElapsed
			cost := 1
			if ws != goal {
				if overflow := use[w] - capacity[w] + 1; overflow > 0 {
					cost += 6 * overflow // nodeCost, flattened
				}
			}
			if d := it.dist + cost; stamp[ws] != gen || d < dist[ws] {
				stamp[ws] = gen
				dist[ws] = d
				prev[ws] = it.node
				h.push(heapItem{node: ws, dist: d})
			}
		}
	}
	s.heapBuf = h.items[:0]
	if stamp[goal] != gen {
		return nil
	}
	rev := s.rev[:0]
	for cur := goal; cur != -1; cur = prev[cur] {
		rev = append(rev, cur/stride)
	}
	s.rev = rev
	// Exclude the destination FU from occupancy; keep source and middle.
	path := s.allocPath(len(rev) - 1)
	for i := len(rev) - 1; i >= 1; i-- {
		path = append(path, rev[i])
	}
	return path
}

type heapItem struct {
	node, dist int
}

// nodeHeap is a minimal binary min-heap on dist, reused across routes to
// avoid allocation in the annealer's hot loop.
type nodeHeap struct {
	items []heapItem
}

func (h *nodeHeap) len() int { return len(h.items) }

func (h *nodeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *nodeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.items[l].dist < h.items[smallest].dist {
			smallest = l
		}
		if r < len(h.items) && h.items[r].dist < h.items[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// nodeCost is the congestion surcharge for routing through a node.
func (s *state) nodeCost(node int) int {
	overflow := s.use[node] - s.m.Cap(node) + 1
	if overflow <= 0 {
		return 0
	}
	return 6 * overflow
}

// totalCost is overuse plus penalties for unroutable edges.
func (s *state) totalCost() int {
	return s.over + unroutablePenalty*s.unrouted
}

// tryMove proposes one annealing move: relocate a random operation in space
// (random supporting PE) and/or time (±1 within dependence slack), reroute
// its incident edges, and accept by Metropolis.
func (s *state) tryMove(rng *rand.Rand, temp float64) bool {
	v := rng.Intn(s.d.N())
	oldPE, oldTime := s.pe[v], s.time[v]
	newPE, newTime := oldPE, oldTime

	switch rng.Intn(3) {
	case 0: // move in space
		newPE = randomSupportingPE(s.c, s.d.Nodes[v].Kind, rng)
	case 1: // move in time
		newTime = oldTime + 1 - 2*rng.Intn(2)
	default: // both
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
	oldPaths := s.oldPaths[:0]
	for _, ei := range touched {
		oldPaths = append(oldPaths, s.path[ei])
	}
	s.oldPaths = oldPaths

	s.occupyOp(v, -1)
	s.pe[v], s.time[v] = newPE, newTime
	s.occupyOp(v, +1)
	for _, ei := range touched {
		s.reroute(ei)
	}
	after := s.totalCost()

	delta := after - before
	if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
		// Accept: the saved pre-move paths are dead; recycle their arrays.
		for _, p := range oldPaths {
			s.freePath(p)
		}
		return true
	}
	// Reject: restore, recycling the rejected paths' arrays.
	s.occupyOp(v, -1)
	s.pe[v], s.time[v] = oldPE, oldTime
	s.occupyOp(v, +1)
	for i, ei := range touched {
		rejected := s.path[ei]
		for _, node := range pathOccupancy(rejected) {
			s.addUse(node, -1)
		}
		s.freePath(rejected)
		old := oldPaths[i]
		if (rejected == nil) != (old == nil) {
			if rejected == nil {
				s.unrouted--
			} else {
				s.unrouted++
			}
		}
		s.path[ei] = old
		for _, node := range pathOccupancy(old) {
			s.addUse(node, +1)
		}
	}
	return false
}

// timeFeasible checks v's dependence constraints against the current times
// of every other operation.
func (s *state) timeFeasible(v, t int) bool {
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

func (s *state) placement() *Placement {
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

// Verify audits a finished placement: every edge routed along real MRRG arcs
// from the producer's output register to the consumer's FU, and no resource
// used beyond capacity.
func (p *Placement) Verify(c *arch.CGRA) error {
	use := make([]int, p.M.N())
	for v := range p.D.Nodes {
		if p.Time[v] < 0 || p.PE[v] < 0 || p.PE[v] >= c.NumPEs() {
			return fmt.Errorf("dresc: op %s has invalid binding (t=%d, pe=%d)", p.D.Nodes[v].Name, p.Time[v], p.PE[v])
		}
		slot := p.Time[v] % p.II
		if !c.Supports(p.PE[v], p.D.Nodes[v].Kind) {
			return fmt.Errorf("dresc: PE %d cannot execute %s", p.PE[v], p.D.Nodes[v].Name)
		}
		use[p.M.FUNode(p.PE[v], slot)]++
		if p.D.Nodes[v].Kind != dfg.Store && len(p.D.OutEdges(v)) > 0 {
			use[p.M.OutRegNode(p.PE[v], (slot+1)%p.II)]++
		}
		if p.D.Nodes[v].Kind.IsMem() {
			use[p.M.BusNode(c.RowOf(p.PE[v]), slot)]++
			if p.M.HasBusGroups() {
				use[p.M.BusGroupNode(c.BusGroupOf(p.PE[v]), slot)]++
			}
		}
	}
	for ei, e := range p.D.Edges {
		if p.Time[e.To] < p.Time[e.From]+p.D.Nodes[e.From].Kind.Latency()-p.II*e.Dist {
			return fmt.Errorf("dresc: edge %d violates dependence timing", ei)
		}
		path := p.Paths[ei]
		if len(path) == 0 {
			return fmt.Errorf("dresc: edge %d unrouted", ei)
		}
		wantSrc := p.M.OutRegNode(p.PE[e.From], (p.Time[e.From]+1)%p.II)
		if path[0] != wantSrc {
			return fmt.Errorf("dresc: edge %d starts at %s, want %s", ei, p.M.Describe(path[0]), p.M.Describe(wantSrc))
		}
		dst := p.M.FUNode(p.PE[e.To], p.Time[e.To]%p.II)
		elapsed := 1 // the producer's result reaches its out register in 1 cycle
		for i := 0; i+1 < len(path); i++ {
			if !containsNode(p.M.Out(path[i]), path[i+1]) {
				return fmt.Errorf("dresc: edge %d path hop %d not an MRRG arc", ei, i)
			}
			if p.M.Kind(path[i+1]) != arch.FU {
				elapsed++
			}
		}
		if !containsNode(p.M.Out(path[len(path)-1]), dst) {
			return fmt.Errorf("dresc: edge %d path does not reach %s", ei, p.M.Describe(dst))
		}
		span := p.Time[e.To] - p.Time[e.From] + p.II*e.Dist
		if elapsed != span {
			return fmt.Errorf("dresc: edge %d path takes %d cycles, dependence spans %d", ei, elapsed, span)
		}
		for _, node := range pathOccupancy(path) {
			use[node]++
		}
	}
	for node, u := range use {
		if u > p.M.Cap(node) {
			return fmt.Errorf("dresc: %s used %d times, capacity %d", p.M.Describe(node), u, p.M.Cap(node))
		}
	}
	return nil
}

func containsNode(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
