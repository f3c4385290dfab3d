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
// index (candidate lists, masks and spans), the per-PE rule masks — is done
// once per Reset; each Build then reuses it. Register demands are
// re-derived every Build: they are O(V+E) to compute and follow the
// schedule's spans.
//
// A Build first records, per operation pair, whether any Appendix A.2 rule
// binds the two (a dependence either way, or a shared modulo slot). A pair
// with neither is complete bipartite in the graph. The relation then
// decides storage: the graph's rows are laid out from it (clique.Layout),
// so a candidate's row stores only the words its own operation and the
// operations constrained with it span, and only the constrained partners
// are ORed in. The grouped clique search skips work on free pairs too (see
// clique.Groups).
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
	g     clique.Graph  // never copied: it holds the searches' idle arenas and its row storage
	cg    Compat

	// Per-PE rule masks over pair ids, built once per Reset (see
	// orPartners): the ids bound to PE p, to the PEs connected to p (one set
	// serves both directions, since arch.Connected is symmetric), and to the
	// PEs of p's bus group (busOf is nil unless memory pairs can clash; PEs of
	// one group share one mask).
	onPE     []*graph.Bitset
	reach    []*graph.Bitset
	busOf    []*graph.Bitset
	rowSpan  []uint64 // orPartners' scratch: the words one row receives
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

	// Build's constrained partners of one operation, merged by rule (see
	// addPartner): per rule, the partners' candidates, full width, and the
	// words they touch.
	part   [rules][]uint64
	partAt [rules][]int
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
// reusing its storage; the next Build lays the graph's rows out again. It
// fails when the II
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
	b.rowSpan = resize(b.rowSpan, (n+63)/64)
	for r := range b.part {
		b.part[r] = resize(b.part[r], (n+63)/64)
		b.partAt[r] = b.partAt[r][:0]
	}

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

// Build constructs the compatibility graph for the given schedule. times
// holds the absolute slot of each operation. The returned Compat aliases
// builder storage and is valid until the next Build or Reset.
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

	// Classify every operation pair, lay the rows out from the relation,
	// then OR in only the constrained partners: a free pair's words are
	// implicit in each other's rows, all ones.
	N := d.N()
	for vi := 0; vi < N; vi++ {
		for vj := vi + 1; vj < N; vj++ {
			b.gx.Constrain(vi, vj, b.depHas[vi*N+vj] || b.depHas[vj*N+vi] || times[vi]%ii == times[vj]%ii)
		}
	}
	b.g.Layout(&b.gx)
	for v := 0; v < N; v++ {
		for w := 0; w < N; w++ {
			if w != v && b.gx.Constrained(v, w) {
				b.addPartner(w, b.rule(times, v, w))
			}
		}
		b.orPartners(v)
	}
	return &b.cg, nil
}

// rule applies the Appendix A.2 rules to a constrained operation pair: a
// dependence either way, or a shared modulo slot.
func (b *CompatBuilder) rule(times []int, vi, vj int) pairRule {
	N := b.d.N()
	kf, kr := vi*N+vj, vj*N+vi
	var r pairRule
	if times[vi]%b.ii == times[vj]%b.ii {
		r |= sameSlot
		if b.memOp[vi] && b.memOp[vj] && b.memPairwise {
			r |= memClash
		}
	}
	if b.depCarried[kf] || b.depCarried[kr] {
		r |= carried
	}
	if b.depNeedAdj[kf] || b.depNeedAdj[kr] {
		r |= adjacent
	}
	return r
}

// pairRule is the Appendix A.2 constraint between a constrained operation
// pair, one bit per rule. Every rule is symmetric (connectivity included,
// see arch.Connected), so one rule serves both sides.
type pairRule uint8

const (
	sameSlot pairRule = 1 << iota // same modulo slot: the two may not share a PE (one resource of R_II)
	memClash                      // same-slot memory ops: the two may not share a bus group (capacity <= 1)
	carried                       // a register-carried dependence: the two must share a PE
	adjacent                      // forwarded at span 1, either way: their PEs must be connected

	rules = 1 << iota // the number of distinct pairRules
)

// addPartner merges op w's candidates into the current operation's
// partners under rule r.
func (b *CompatBuilder) addPartner(w int, r pairRule) {
	lo, hi := b.gx.Span(w)
	part := b.part[r]
	for k, x := range b.gx.Mask(w).Words()[lo:hi] {
		if part[lo+k] == 0 && x != 0 {
			b.partAt[r] = append(b.partAt[r], lo+k)
		}
		part[lo+k] |= x
	}
}

// orPartners ORs into each candidate row of v the partners legal beside
// it, then empties the partners. A rule's partners are legal beside a
// candidate on PE p when they lie in p's rule masks, and the masks depend
// only on the rule and p, so each rule takes one pass per candidate over
// the words its partners touch, however many partners share it. Zero-cap
// bus groups never appear: their PEs were excluded from memory-op
// candidates at enumeration.
func (b *CompatBuilder) orPartners(v int) {
	for r := range b.partAt {
		at := b.partAt[r]
		if len(at) == 0 {
			continue
		}
		rule, part, row := pairRule(r), b.part[r], b.rowSpan[:len(at)]
		for _, i := range b.byOp[v] {
			p := b.pairs[i].PE
			on, reach := b.onPE[p].Words(), b.reach[p].Words()
			var bus []uint64
			if rule&memClash != 0 {
				bus = b.busOf[p].Words() // the group holds p itself
			}
			for k, w := range at {
				x := part[w]
				if rule&carried != 0 {
					x &= on[w]
				}
				if rule&adjacent != 0 {
					x &= reach[w]
				}
				switch {
				case rule&memClash != 0:
					x &^= bus[w]
				case rule&sameSlot != 0:
					x &^= on[w]
				}
				row[k] = x
			}
			b.g.OrAdjacencyAt(i, at, row)
		}
		for _, w := range at {
			part[w] = 0
		}
		b.partAt[r] = at[:0]
	}
}

// BuildCompat constructs the compatibility graph of a scheduled DFG on the
// array at the given II, from scratch. The mapping loop uses a CompatBuilder
// instead to reuse storage across schedule attempts; the two are
// equivalent (see TestCompatBuilderIncrementalMatchesScratch).
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
