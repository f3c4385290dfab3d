// Package core implements REGIMap itself: the compatibility-graph
// formulation of integrated placement and register allocation (paper
// Appendices A-C), the weight-constrained clique placement (Appendix D), and
// the full learn-from-failure mapping loop (Algorithm 1, Appendix E).
package core

import (
	"fmt"
	"slices"

	"regimap/internal/graph"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/dfg"
)

// Pair is one compatibility-graph node: a candidate binding of an operation
// to a PE (the time slot is fixed by the schedule, so the pair fully
// determines a resource of R_II).
type Pair struct {
	Op int // DFG node
	PE int // CGRA PE
}

// Compat is the compatibility graph P between a scheduled DFG and the
// time-extended CGRA R_II (paper Step 1-2, Appendix A-B). Nodes are feasible
// (operation, PE) pairs; an undirected edge means both bindings can coexist.
// Each node carries its operation's register demand — the rotating registers
// its value holds when a dependence must be register-carried (producer and
// consumer sharing a PE more than one cycle apart) — in the register file of
// its PE, the node's clique cluster.
type Compat struct {
	G     *clique.Graph
	Pairs []Pair
	II    int

	d    *dfg.DFG
	byOp [][]int        // candidate node indices per operation
	gx   *clique.Groups // byOp indexed for the grouped search, with the constraint relation
}

// CompatOptions tunes construction; the zero value is this reproduction's
// default model.
type CompatOptions struct {
	// StrictInterIteration applies the paper's conservative Appendix A.2
	// rule: every inter-iteration dependence keeps producer and consumer on
	// one PE, even a one-cycle dependence the output register could forward
	// to a neighbour. The default (false) permits that forwarding — it is
	// safe under the out-register timing model, every mapping is still
	// audited by mapping.Validate and the cycle-accurate simulator, and it
	// avoids inflating II on tight recurrences; the difference is measured
	// by an ablation bench.
	StrictInterIteration bool
}

// CompatBuilder constructs compatibility graphs for one (kernel, array, II)
// repeatedly across the mapping loop's schedule attempts. The schedule-
// independent work — candidate pair enumeration, the per-operation group
// index (candidate lists, masks and spans), the clique graph's storage — is
// done once per Reset; each Build then reuses it, and when only a few
// operations moved slots since the previous Build, only the adjacency rows
// of those operations' candidates are rebuilt (unchanged-pair constraints
// depend solely on the two operations' own slots, so their edges are
// provably identical). Register demands are re-derived wholesale every
// Build: they are O(V+E) to compute and follow the schedule's spans.
//
// Each Build also records, per operation pair, whether any Appendix A.2
// rule binds the two (a dependence either way, or a shared modulo slot).
// A pair with neither is complete bipartite in the graph, and the grouped
// clique search skips work on it (see clique.Groups).
//
// One builder serves a whole core.Map call: Reset re-targets it at every II
// and every route-inserted work DFG, keeping its storage.
//
// The produced *Compat aliases the builder's storage: it is valid until the
// next Build or Reset, which matches the mapping loop's
// schedule/place/learn cadence. A builder is single-goroutine; the searches
// over its graph may share it read-only.
type CompatBuilder struct {
	d    *dfg.DFG
	c    *arch.CGRA
	ii   int
	opts CompatOptions

	pairs []Pair
	byOp  [][]int
	gx    clique.Groups // byOp's masks and word spans, and the constraint relation
	memOp []bool        // operation touches a shared memory bus
	g     clique.Graph  // never copied: it holds the searches' idle arenas
	cg    Compat

	// Per-PE rule masks over pair ids, built once per Reset (see
	// orPartners): the ids bound to PE p, to the PEs connected to p (one set
	// serves both directions, since arch.Connected is symmetric), and to the
	// PEs of p's bus group (busOf is nil unless memory pairs can clash; PEs of
	// one group share one mask).
	onPE     []*graph.Bitset
	reach    []*graph.Bitset
	busOf    []*graph.Bitset
	rowSpan  []uint64 // orPartners' scratch: one composed span of a row
	ruleSlab graph.Slab
	busSlab  graph.Slab

	// memPairwise is false only for a single global bus group of capacity
	// >= 2, where memory contention is enforced wholesale by the scheduler
	// and no pairwise conflict exists.
	memPairwise bool

	// Fanout scratch (sized only on fanout-bounded fabrics): per-pair
	// dedup and per-producer forwardable-consumer counts.
	fanCnt   []int
	fanSeen  []bool
	fanPairs []int

	// Dependence summaries per ordered operation pair, flat at from*N+to
	// (Appendix A.2). Rebuilt each Build by one pass over the edges; the
	// arrays themselves — the allocation — persist across attempts.
	depHas     []bool
	depNeedAdj []bool
	depCarried []bool

	maxCarried []int

	prevTimes []int // schedule of the previous successful Build (empty: none)

	// Per-build scratch, allocated once.
	changed      []bool
	changedList  []int
	changedMask  graph.Bitset
	union        graph.Bitset
	depFree      [][]int // dep-free partners per op (this build's touched pairs)
	sameSlotFree [][2]int
}

// NewCompatBuilder enumerates candidate pairs for the kernel on the array
// and prepares reusable storage: Reset on a zero builder.
func NewCompatBuilder(d *dfg.DFG, c *arch.CGRA, ii int, opts CompatOptions) (*CompatBuilder, error) {
	b := &CompatBuilder{}
	if err := b.Reset(d, c, ii, opts); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset re-targets the builder at kernel d on array c at the given II,
// reusing its storage: the adjacency slab grows geometrically and is
// overwritten by the next Build, which is a full one. It fails when the II
// is non-positive or an operation has no supporting PE — the same early outs
// as a from-scratch BuildCompat — and a builder whose Reset failed must be
// Reset again before its next Build.
func (b *CompatBuilder) Reset(d *dfg.DFG, c *arch.CGRA, ii int, opts CompatOptions) error {
	if ii <= 0 {
		return fmt.Errorf("core: non-positive II %d", ii)
	}
	b.d, b.c, b.ii, b.opts = d, c, ii, opts
	N := d.N()

	// Enumerate candidate pairs: operation x supporting PE. The schedule has
	// already pruned the time dimension — this is the paper's point that
	// scheduling shrinks the product graph (only |V| x |PEs| pairs remain
	// instead of |V| x |PEs| x II).
	b.pairs = b.pairs[:0]
	b.byOp = regrow(b.byOp, N)
	for v := range d.Nodes {
		b.byOp[v] = b.byOp[v][:0]
		for p := 0; p < c.NumPEs(); p++ {
			if !c.Supports(p, d.Nodes[v].Kind) {
				continue // heterogeneous restriction or a broken PE
			}
			if d.Nodes[v].Kind.IsMem() && !c.MemPEOk(p) {
				continue // memory op where no bus serves: dead row or zero-cap group
			}
			b.byOp[v] = append(b.byOp[v], len(b.pairs))
			b.pairs = append(b.pairs, Pair{Op: v, PE: p})
		}
		if len(b.byOp[v]) == 0 {
			return fmt.Errorf("core: no PE supports op %s (%s)", d.Nodes[v].Name, d.Nodes[v].Kind)
		}
	}

	// Every PE is a clique cluster with its usable register file: the
	// nominal budget NumRegs, or less where the file is smaller or faulted.
	n, pes := len(b.pairs), c.NumPEs()
	b.g.Reset(n, pes)
	for id, pr := range b.pairs {
		b.g.SetCluster(id, pr.PE)
	}
	for p := 0; p < pes; p++ {
		b.g.SetRegs(p, min(c.NumRegs, c.RegsAt(p)))
	}
	b.gx.Reset(n, b.byOp)
	b.cg = Compat{G: &b.g, Pairs: b.pairs, II: ii, d: d, byOp: b.byOp, gx: &b.gx}
	// With one array-wide bus group of capacity >= 2, memory ops impose no
	// pairwise constraint at all: the scheduler's per-slot memory cap equals
	// the group capacity and is exact on its own. Every other scheme (the
	// default row buses included) has per-group capacity <= 1, where sharing
	// a group is exactly a pairwise conflict.
	b.memPairwise = !(c.NumBusGroups() == 1 && c.BusGroupCap(0) > 1)
	if c.Fanout() > 0 {
		b.fanCnt = resize(b.fanCnt, N)
		b.fanSeen = resize(b.fanSeen, N*N)
	}

	b.memOp = resize(b.memOp, N)
	memOps := 0
	for v := range b.byOp {
		if b.memOp[v] = d.Nodes[v].Kind.IsMem(); b.memOp[v] {
			memOps++
		}
	}
	b.rowSpan = resize(b.rowSpan, b.gx.MaxSpan())

	rules := b.ruleSlab.Carve(n, 2*pes)
	for _, r := range rules {
		r.Reset()
	}
	b.onPE, b.reach = rules[:pes], rules[pes:]
	for id, pr := range b.pairs {
		b.onPE[pr.PE].Set(id)
	}
	for p := 0; p < pes; p++ {
		c.AdjacencyRow(p).ForEach(func(q int) bool {
			// Connected(p, q) == Connected(q, p): one set per PE.
			b.reach[p].Or(b.onPE[q])
			return true
		})
	}
	b.busOf = b.busOf[:0]
	if b.memPairwise && memOps >= 2 {
		groups := b.busSlab.Carve(n, c.NumBusGroups())
		for _, grp := range groups {
			grp.Reset()
		}
		for id, pr := range b.pairs {
			groups[c.BusGroupOf(pr.PE)].Set(id)
		}
		b.busOf = resize(b.busOf, pes)
		for p := range b.busOf {
			b.busOf[p] = groups[c.BusGroupOf(p)]
		}
	}

	nn := N * N
	b.depHas = resize(b.depHas, nn)
	b.depNeedAdj = resize(b.depNeedAdj, nn)
	b.depCarried = resize(b.depCarried, nn)
	b.maxCarried = resize(b.maxCarried, N)

	b.changed = resize(b.changed, N)
	b.changedMask.Grow(n)
	b.union.Grow(n)
	b.depFree = regrow(b.depFree, N)
	for v := range b.depFree {
		b.depFree[v] = b.depFree[v][:0]
	}
	b.sameSlotFree = b.sameSlotFree[:0]
	b.prevTimes = b.prevTimes[:0]
	return nil
}

// resize returns s with n zero elements, reallocating only when it is too
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// regrow returns s with n elements, keeping the elements it already holds
// (the storage of inner slices, which the caller truncates and refills).
func regrow[T any](s []T, n int) []T {
	if n > len(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// Build constructs (or incrementally rebuilds) the compatibility graph for
// the given schedule. times holds the absolute slot of each operation. The
// returned Compat aliases builder storage and is valid until the next Build
// or Reset.
func (b *CompatBuilder) Build(times []int) (*Compat, error) {
	d, ii := b.d, b.ii
	if len(times) != d.N() {
		return nil, fmt.Errorf("core: %d schedule slots for %d ops", len(times), d.N())
	}
	for v := range d.Nodes {
		if times[v] < 0 {
			return nil, fmt.Errorf("core: op %s unscheduled", d.Nodes[v].Name)
		}
	}

	// Summarize dependences once per ordered operation pair (Appendix A.2),
	// and compute each operation's register demand R[i] from the schedule:
	// parallel arcs and multiple consumers of one value share live copies, so
	// the *longest* register-carried span determines the demand —
	// ceil(maxSpan/II) rotating registers, exactly the accounting of
	// mapping.RegisterPressure. The demand is placement-independent because
	// every register-carried consumer is forced onto the producer's PE.
	// Validation comes first so errors leave the builder untouched.
	for _, e := range d.Edges {
		span := times[e.To] - times[e.From] + ii*e.Dist
		if span < d.Nodes[e.From].Kind.Latency() {
			return nil, fmt.Errorf("core: schedule violates edge %s->%s (span %d)",
				d.Nodes[e.From].Name, d.Nodes[e.To].Name, span)
		}
	}
	for v := range b.maxCarried {
		b.maxCarried[v] = 0
	}
	for _, e := range d.Edges {
		if e.From != e.To {
			k := e.From*d.N() + e.To
			b.depHas[k], b.depNeedAdj[k], b.depCarried[k] = false, false, false
		}
	}
	for _, e := range d.Edges {
		span := times[e.To] - times[e.From] + ii*e.Dist
		forwardable := span == 1 && (e.Dist == 0 || !b.opts.StrictInterIteration)
		if span > 1 && span > b.maxCarried[e.From] {
			b.maxCarried[e.From] = span
		}
		if e.From == e.To {
			continue // self recurrence: no pairwise constraint, demand only
		}
		k := e.From*d.N() + e.To
		b.depHas[k] = true
		if forwardable {
			b.depNeedAdj[k] = true
		} else {
			b.depCarried[k] = true
		}
	}
	if fo := b.c.Fanout(); fo > 0 {
		// Link bandwidth: a producer with more forwardable (span-1, distinct
		// consumer) dependences than the fabric's fanout bound cannot serve
		// them all through its output register, since each remote consumer is
		// one same-cycle read. Forcing every such dependence onto the
		// producer's PE is always legal at span 1 and costs no registers, so
		// the clique engine never emits a mapping the link-bandwidth audit
		// rejects. (Conservative: mixed forward/carry splits that would also
		// satisfy the bound are not explored.)
		b.fanPairs = b.fanPairs[:0]
		for v := range b.fanCnt {
			b.fanCnt[v] = 0
		}
		for _, e := range d.Edges {
			if e.From == e.To {
				continue
			}
			k := e.From*d.N() + e.To
			if b.depNeedAdj[k] && !b.depCarried[k] && !b.fanSeen[k] {
				b.fanSeen[k] = true
				b.fanPairs = append(b.fanPairs, k)
				b.fanCnt[e.From]++
			}
		}
		for _, k := range b.fanPairs {
			b.fanSeen[k] = false
			if b.fanCnt[k/d.N()] > fo {
				b.depCarried[k] = true
			}
		}
	}
	// Every binding of an operation holds its demand in its PE's file, and
	// the clique search keeps each PE's summed demand within that file: the
	// per-PE register capacity of Appendix B and Theorem C.1.
	for v, span := range b.maxCarried {
		demand := 0
		if span > 1 {
			demand = ceilDiv(span, ii)
		}
		for _, id := range b.byOp[v] {
			b.g.SetDemand(id, demand)
		}
	}

	// Decide how much adjacency to rebuild: everything on the first Build
	// (or when most slots moved), otherwise only the rows of operations
	// whose slot changed. Constraints between two unchanged operations
	// depend only on their own slots and the static dependence structure, so
	// those edges are identical and stay.
	// Fanout coupling breaks the incremental invariant: forcing a producer's
	// dependences carried depends on the spans of its *other* consumers, so
	// a pair between two unchanged operations can still flip. Rebuild fully
	// on fanout-bounded fabrics.
	b.changedList = b.changedList[:0]
	full := len(b.prevTimes) == 0 || b.c.Fanout() > 0
	if !full {
		for v := range times {
			if times[v] != b.prevTimes[v] {
				b.changed[v] = true
				b.changedList = append(b.changedList, v)
			}
		}
		if 2*len(b.changedList) > d.N() {
			full = true
		}
	}

	if full {
		b.rebuildAdjacencyFull(times)
	} else {
		b.rebuildAdjacencyRows(times)
	}
	for _, v := range b.changedList {
		b.changed[v] = false
	}
	b.prevTimes = append(b.prevTimes[:0], times...)
	return &b.cg, nil
}

// classifyPair applies the Appendix A.2 rules to the ordered pair vi < vj:
// it records whether any rule binds the two in the constraint relation,
// then dependence-free pairs are recorded for the bulk mask fast path (the
// overwhelming majority on large arrays); a dependent or bus-clashing pair
// ORs each candidate's legal partners into its row, one word span at a
// time, from both sides.
func (b *CompatBuilder) classifyPair(times []int, vi, vj int) {
	d, ii := b.d, b.ii
	sameSlot := times[vi]%ii == times[vj]%ii
	memClash := sameSlot && b.memOp[vi] && b.memOp[vj] && b.memPairwise
	kf, kr := vi*d.N()+vj, vj*d.N()+vi

	dep := b.depHas[kf] || b.depHas[kr]
	b.gx.Constrain(vi, vj, dep || sameSlot) // a bus clash shares the slot
	if !dep && !memClash {
		b.depFree[vi] = append(b.depFree[vi], vj)
		b.depFree[vj] = append(b.depFree[vj], vi)
		if sameSlot {
			b.sameSlotFree = append(b.sameSlotFree, [2]int{vi, vj})
		}
		return
	}
	r := pairRule{
		sameSlot: sameSlot,
		memClash: memClash,
		carried:  b.depCarried[kf] || b.depCarried[kr],
		adjacent: b.depNeedAdj[kf] || b.depNeedAdj[kr],
	}
	b.orPartners(vi, vj, r)
	b.orPartners(vj, vi, r)
}

// pairRule is the Appendix A.2 constraint between a dependent or
// bus-clashing operation pair. Every rule is symmetric (connectivity
// included, see arch.Connected), so one rule serves both sides.
type pairRule struct {
	sameSlot bool // same modulo slot: the two may not share a PE (one resource of R_II)
	memClash bool // same-slot memory ops: the two may not share a bus group (capacity <= 1)
	carried  bool // a register-carried dependence: the two must share a PE
	adjacent bool // forwarded at span 1, either way: their PEs must be connected
}

// orPartners ORs into each candidate row of v the candidates of w legal
// beside it under r: w's mask intersected with the rule masks of the
// candidate's PE, over w's word span. Zero-cap bus groups never appear:
// their PEs were excluded from memory-op candidates at enumeration.
func (b *CompatBuilder) orPartners(v, w int, r pairRule) {
	lo, hi := b.gx.Span(w)
	span := b.gx.Mask(w).Words()[lo:hi]
	row := b.rowSpan[:hi-lo]
	for _, i := range b.byOp[v] {
		p := b.pairs[i].PE
		copy(row, span)
		if r.carried {
			andWords(row, b.onPE[p], lo)
		}
		if r.adjacent {
			andWords(row, b.reach[p], lo)
		}
		switch {
		case r.memClash:
			andNotWords(row, b.busOf[p], lo) // the group holds p itself
		case r.sameSlot:
			andNotWords(row, b.onPE[p], lo)
		}
		b.g.OrAdjacencyWords(i, lo, row)
	}
}

// orMask unions op v's candidate mask into dst over the mask's word span.
func (b *CompatBuilder) orMask(dst *graph.Bitset, v int) {
	lo, hi := b.gx.Span(v)
	dst.OrWords(lo, b.gx.Mask(v).Words()[lo:hi])
}

// andWords intersects row with m's words starting at word lo.
func andWords(row []uint64, m *graph.Bitset, lo int) {
	for k, w := range m.Words()[lo : lo+len(row)] {
		row[k] &= w
	}
}

// andNotWords removes m's words starting at word lo from row.
func andNotWords(row []uint64, m *graph.Bitset, lo int) {
	for k, w := range m.Words()[lo : lo+len(row)] {
		row[k] &^= w
	}
}

// applyDepFree ORs the accumulated dependence-free partner masks into each
// touched operation's candidate rows, over the word span the partners
// cover, then clears the same-slot same-PE collisions (the one resource
// conflict the bulk OR cannot express).
func (b *CompatBuilder) applyDepFree() {
	for vi, partners := range b.depFree {
		if len(partners) == 0 {
			continue
		}
		lo, hi := b.gx.Span(partners[0])
		for _, vj := range partners[1:] {
			l, h := b.gx.Span(vj)
			lo, hi = min(lo, l), max(hi, h)
		}
		union := b.union.Words()[lo:hi]
		clear(union)
		for _, vj := range partners {
			b.orMask(&b.union, vj)
		}
		for _, i := range b.byOp[vi] {
			b.g.OrAdjacencyWords(i, lo, union)
		}
		b.depFree[vi] = b.depFree[vi][:0]
	}
	for _, pair := range b.sameSlotFree {
		// Same resource of R_II: same PE in the same slot. Candidate lists
		// are PE-sorted, so a lockstep walk finds the collisions.
		ci, cj := b.byOp[pair[0]], b.byOp[pair[1]]
		x, y := 0, 0
		for x < len(ci) && y < len(cj) {
			pi, pj := b.pairs[ci[x]].PE, b.pairs[cj[y]].PE
			switch {
			case pi == pj:
				b.g.ClearEdge(ci[x], cj[y])
				x++
				y++
			case pi < pj:
				x++
			default:
				y++
			}
		}
	}
	b.sameSlotFree = b.sameSlotFree[:0]
}

// rebuildAdjacencyFull reconstructs every adjacency row from scratch.
func (b *CompatBuilder) rebuildAdjacencyFull(times []int) {
	for i := range b.pairs {
		b.g.ResetAdjacency(i)
	}
	for vi := 0; vi < b.d.N(); vi++ {
		for vj := vi + 1; vj < b.d.N(); vj++ {
			b.classifyPair(times, vi, vj)
		}
	}
	b.applyDepFree()
}

// rebuildAdjacencyRows reconstructs only the rows touching operations whose
// slot changed: their candidates' rows are cleared outright, every other
// row drops its edges into the changed candidates, and the changed-vs-all
// pair constraints are re-derived.
func (b *CompatBuilder) rebuildAdjacencyRows(times []int) {
	b.changedMask.Reset()
	for _, v := range b.changedList {
		b.orMask(&b.changedMask, v)
	}
	for v := 0; v < b.d.N(); v++ {
		if b.changed[v] {
			for _, id := range b.byOp[v] {
				b.g.ResetAdjacency(id)
			}
		} else {
			for _, id := range b.byOp[v] {
				b.g.AndNotAdjacency(id, &b.changedMask)
			}
		}
	}
	for _, vi := range b.changedList {
		for vj := 0; vj < b.d.N(); vj++ {
			if vj == vi || (b.changed[vj] && vj < vi) {
				continue // the changed-changed pair was handled at the lower id
			}
			if vi < vj {
				b.classifyPair(times, vi, vj)
			} else {
				b.classifyPair(times, vj, vi)
			}
		}
	}
	b.applyDepFree()
}

// BuildCompat constructs the compatibility graph of a scheduled DFG on the
// array at the given II, from scratch. The mapping loop uses a CompatBuilder
// instead to reuse storage and unchanged rows across schedule attempts; the
// two are equivalent (see TestCompatBuilderIncrementalMatchesScratch).
func BuildCompat(d *dfg.DFG, c *arch.CGRA, times []int, ii int, opts CompatOptions) (*Compat, error) {
	b, err := NewCompatBuilder(d, c, ii, opts)
	if err != nil {
		return nil, err
	}
	return b.Build(times)
}

// Candidates returns the compatibility-graph node indices that bind op v.
func (cg *Compat) Candidates(v int) []int { return cg.byOp[v] }

// Groups returns the candidates indexed for clique.FindGrouped, one group per
// operation, with the operation pairs no Appendix A.2 rule binds marked
// free.
func (cg *Compat) Groups() *clique.Groups { return cg.gx }

// Nodes returns the number of (operation, PE) pairs.
func (cg *Compat) Nodes() int { return len(cg.Pairs) }

// Edges returns the number of undirected compatibility edges, from the
// graph's cached degree sweep.
func (cg *Compat) Edges() int {
	total := 0
	for _, d := range cg.G.Degrees() {
		total += d
	}
	return total / 2
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
