// Package sched implements Rau-style iterative modulo scheduling (IMS) of a
// data-flow graph onto a CGRA's time dimension. The scheduler assigns each
// operation an absolute slot T(v) such that every dependence satisfies
// T(j) >= T(i) + lat(i) - II*dist(i,j) and no modulo slot holds more
// operations than the array has PEs (nor more memory operations than it has
// row buses). Placement onto specific PEs is deliberately *not* done here —
// that is REGIMap's clique step (or the baselines' own placers).
//
// Two knobs exist specifically for REGIMap's learn-from-failure loop
// (paper Section 6.3 / Appendix E):
//
//   - Options.Prefer raises the scheduling priority of named operations so a
//     re-schedule orders nodes differently from the previous attempt, and
//   - Options.MaxPEs virtually shrinks the array ("thinning"), forcing a
//     schedule of smaller width.
package sched

import (
	"fmt"
	"sort"

	"regimap/internal/dfg"
	"regimap/internal/obs"
)

// budgetFactor scales the operation-scheduling budget: an attempt aborts
// after budgetFactor*|V| placements.
const budgetFactor = 16

// Options configures one scheduling attempt. The memory operations of one
// modulo slot are capped by the memory issue slots New was given (see
// arch.MemSlotCapacity).
type Options struct {
	// MaxPEs caps how many operations may share one modulo slot (the
	// schedule "width"). Zero means the full array.
	MaxPEs int
	// Prefer lists operations whose priority is raised above everything
	// else, changing the node order of the next attempt.
	Prefer []int
	// Pin, when non-nil, forces listed operations to exact slots (used by
	// the local "move one cycle earlier" repair).
	Pin map[int]int
	// NoCompact skips the lifetime-sensitive compaction pass, leaving the
	// raw list schedule (the DRESC baseline starts from this — the published
	// algorithm has no lifetime-aware scheduler and relies on annealing
	// moves to discover good time placements).
	NoCompact bool
	// Trace, when non-nil, receives one sched.schedule event per attempt.
	// The nil default costs nothing (see internal/obs).
	Trace *obs.Tracer
}

// Result is a feasible modulo schedule.
type Result struct {
	II     int
	Time   []int // absolute slot per operation
	Length int   // 1 + max(Time): the schedule length in cycles
}

// Slot returns the modulo slot of operation v.
func (r *Result) Slot(v int) int { return r.Time[v] % r.II }

// Width returns the maximum number of operations sharing one modulo slot.
func (r *Result) Width() int {
	counts := make([]int, r.II)
	for _, t := range r.Time {
		counts[t%r.II]++
	}
	w := 0
	for _, c := range counts {
		if c > w {
			w = c
		}
	}
	return w
}

// Validate checks the schedule against the DFG and limits; mappers call it
// defensively and tests call it directly.
func (r *Result) Validate(d *dfg.DFG, maxPerSlot, maxMemPerSlot int) error {
	if len(r.Time) != d.N() {
		return fmt.Errorf("sched: %d times for %d ops", len(r.Time), d.N())
	}
	for _, e := range d.Edges {
		lat := d.Nodes[e.From].Kind.Latency()
		if r.Time[e.To] < r.Time[e.From]+lat-r.II*e.Dist {
			return fmt.Errorf("sched: edge %s->%s violated (T=%d,%d II=%d dist=%d)",
				d.Nodes[e.From].Name, d.Nodes[e.To].Name,
				r.Time[e.From], r.Time[e.To], r.II, e.Dist)
		}
	}
	alu := make([]int, r.II)
	mem := make([]int, r.II)
	for v, t := range r.Time {
		if t < 0 {
			return fmt.Errorf("sched: op %s at negative slot %d", d.Nodes[v].Name, t)
		}
		alu[t%r.II]++
		if d.Nodes[v].Kind.IsMem() {
			mem[t%r.II]++
		}
	}
	for s := 0; s < r.II; s++ {
		if alu[s] > maxPerSlot {
			return fmt.Errorf("sched: slot %d holds %d ops, cap %d", s, alu[s], maxPerSlot)
		}
		if mem[s] > maxMemPerSlot {
			return fmt.Errorf("sched: slot %d holds %d mem ops, cap %d", s, mem[s], maxMemPerSlot)
		}
	}
	return nil
}

// Scheduler holds the immutable inputs of repeated scheduling attempts.
type Scheduler struct {
	d        *dfg.DFG
	numPEs   int
	memSlots int
	heights  []int
}

// New returns a scheduler for the DFG on an array with numPEs processing
// elements and memSlots memory issue slots per cycle (the number of rows on
// the paper's array, arch.MIIResources' second value in general).
func New(d *dfg.DFG, numPEs, memSlots int) *Scheduler {
	if numPEs <= 0 || memSlots <= 0 {
		panic("sched: array dimensions must be positive")
	}
	return &Scheduler{d: d, numPEs: numPEs, memSlots: memSlots, heights: d.Heights()}
}

// MII returns the schedule lower bound for this scheduler's array.
func (s *Scheduler) MII() int { return s.d.MII(s.numPEs, s.memSlots) }

// Schedule attempts a modulo schedule at exactly the given II.
func (s *Scheduler) Schedule(ii int, opts Options) (*Result, error) {
	sp := opts.Trace.Start("sched.schedule")
	res, err := s.schedule(ii, opts)
	sp.Field("ii", int64(ii))
	if res != nil {
		sp.Field("length", int64(res.Length))
	}
	sp.FieldBool("ok", err == nil)
	sp.End()
	return res, err
}

func (s *Scheduler) schedule(ii int, opts Options) (*Result, error) {
	if ii <= 0 {
		return nil, fmt.Errorf("sched: non-positive II %d", ii)
	}
	maxPerSlot := opts.MaxPEs
	if maxPerSlot <= 0 || maxPerSlot > s.numPEs {
		maxPerSlot = s.numPEs
	}
	maxMem := s.memSlots
	n := s.d.N()

	// Quick infeasibility checks.
	if _, err := s.d.ASAP(ii); err != nil {
		return nil, err
	}
	if n > maxPerSlot*ii {
		return nil, fmt.Errorf("sched: %d ops cannot fit %d slots of width %d", n, ii, maxPerSlot)
	}
	if m := s.d.MemOps(); m > maxMem*ii {
		return nil, fmt.Errorf("sched: %d mem ops cannot fit %d slots of %d bus issues", m, ii, maxMem)
	}

	prefer := make(map[int]bool, len(opts.Prefer))
	for _, v := range opts.Prefer {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("sched: Prefer op %d out of range", v)
		}
		prefer[v] = true
	}
	for v, t := range opts.Pin {
		if v < 0 || v >= n || t < 0 {
			return nil, fmt.Errorf("sched: bad pin %d@%d", v, t)
		}
	}

	const unscheduled = -1
	time := make([]int, n)
	everTime := make([]int, n) // last slot an op held (for the bump rule)
	for i := range time {
		time[i] = unscheduled
		everTime[i] = unscheduled
	}
	alu := make([]int, ii)
	mem := make([]int, ii)

	place := func(v, t int) {
		time[v] = t
		everTime[v] = t
		alu[t%ii]++
		if s.d.Nodes[v].Kind.IsMem() {
			mem[t%ii]++
		}
	}
	evict := func(v int) {
		t := time[v]
		alu[t%ii]--
		if s.d.Nodes[v].Kind.IsMem() {
			mem[t%ii]--
		}
		time[v] = unscheduled
	}
	fits := func(v, t int) bool {
		if alu[t%ii] >= maxPerSlot {
			return false
		}
		return !s.d.Nodes[v].Kind.IsMem() || mem[t%ii] < maxMem
	}

	// Worklist ordered by (prefer, height, -id); a simple sorted pop keeps
	// the behaviour deterministic.
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	less := func(a, b int) bool {
		pa, pb := prefer[a], prefer[b]
		if pa != pb {
			return pa
		}
		if s.heights[a] != s.heights[b] {
			return s.heights[a] > s.heights[b]
		}
		return a < b
	}
	sort.Slice(pending, func(i, j int) bool { return less(pending[i], pending[j]) })

	budget := budgetFactor * n
	for len(pending) > 0 {
		if budget <= 0 {
			return nil, fmt.Errorf("sched: budget exhausted at II=%d", ii)
		}
		budget--
		v := pending[0]
		pending = pending[1:]

		// Earliest start from *scheduled* predecessors.
		early := 0
		for _, ei := range s.d.InEdges(v) {
			e := s.d.Edges[ei]
			if time[e.From] == unscheduled {
				continue
			}
			if t := time[e.From] + s.d.Nodes[e.From].Kind.Latency() - ii*e.Dist; t > early {
				early = t
			}
		}
		var slot int
		if pt, ok := opts.Pin[v]; ok {
			if pt < early {
				return nil, fmt.Errorf("sched: pin %s@%d below earliest %d", s.d.Nodes[v].Name, pt, early)
			}
			slot = pt
		} else {
			slot = -1
			for t := early; t < early+ii; t++ {
				if fits(v, t) {
					slot = t
					break
				}
			}
			if slot == -1 {
				// Force placement (Rau's bump rule): at early, or just past
				// the op's previous position to guarantee progress.
				slot = early
				if everTime[v] != unscheduled && everTime[v] >= early {
					slot = everTime[v] + 1
				}
			}
		}

		// Evict whatever the forced placement displaces: resource conflicts
		// in the target modulo slot (lowest priority first), then scheduled
		// operations whose dependence on v is now violated.
		for !fits(v, slot) {
			victim := -1
			for u := 0; u < n; u++ {
				if u == v || time[u] == unscheduled || time[u]%ii != slot%ii {
					continue
				}
				if _, pinned := opts.Pin[u]; pinned {
					continue
				}
				if s.d.Nodes[v].Kind.IsMem() && !s.d.Nodes[u].Kind.IsMem() && mem[slot%ii] >= maxMem && alu[slot%ii] < maxPerSlot {
					continue // need a memory slot; evicting ALU-only ops will not help
				}
				if victim == -1 || less(victim, u) {
					victim = u // evict the *lowest* priority occupant
				}
			}
			if victim == -1 {
				return nil, fmt.Errorf("sched: cannot free slot %d at II=%d (pins too tight)", slot%ii, ii)
			}
			evict(victim)
			pending = insertSorted(pending, victim, less)
		}
		place(v, slot)
		for _, ei := range s.d.OutEdges(v) {
			e := s.d.Edges[ei]
			u := e.To
			if u == v || time[u] == unscheduled {
				continue
			}
			if time[u] < time[v]+s.d.Nodes[v].Kind.Latency()-ii*e.Dist {
				if _, pinned := opts.Pin[u]; pinned {
					return nil, fmt.Errorf("sched: pinned op %s violated by %s", s.d.Nodes[u].Name, s.d.Nodes[v].Name)
				}
				evict(u)
				pending = insertSorted(pending, u, less)
			}
		}
	}

	// Lifetime compaction (Huff-style): push every operation as late as its
	// consumers allow so values spend as little time in registers as
	// possible. ASAP placement alone parks loop invariants and loads at
	// cycle 0 with consumers many cycles later, which would turn into large
	// rotating-register demands at placement time.
	if !opts.NoCompact {
		s.compact(time, ii, maxPerSlot, maxMem, opts.Pin, alu, mem)
	}

	res := &Result{II: ii, Time: time}
	for _, t := range time {
		if t+1 > res.Length {
			res.Length = t + 1
		}
	}
	if err := res.Validate(s.d, maxPerSlot, maxMem); err != nil {
		return nil, fmt.Errorf("sched: internal error, produced invalid schedule: %w", err)
	}
	return res, nil
}

// compact is a lifetime-sensitive post-pass in the spirit of Huff (PLDI'93,
// cited by the paper): each operation is moved within its dependence slack to
// the slot that minimizes the kernel's rotating-register demand
// (sum over producers of ceil(maxCarriedSpan/II)), with total excess span as
// the tie-break. Pinned operations stay put; moving never violates the
// reservation table.
func (s *Scheduler) compact(time []int, ii, maxPerSlot, maxMem int, pin map[int]int, alu, mem []int) {
	order := make([]int, len(time))
	for i := range order {
		order[i] = i
	}
	// Latest-scheduled first, so downstream moves open slack upstream within
	// a single pass.
	sort.Slice(order, func(i, j int) bool {
		if time[order[i]] != time[order[j]] {
			return time[order[i]] > time[order[j]]
		}
		return order[i] < order[j]
	})

	// demandOf returns op's register demand with op placed at t (all other
	// times read from the schedule).
	demandOf := func(op, t int) int {
		maxSpan := 0
		for _, ei := range s.d.OutEdges(op) {
			e := s.d.Edges[ei]
			var span int
			if e.To == op {
				span = ii * e.Dist // self recurrences move with the op
			} else {
				span = time[e.To] - t + ii*e.Dist
			}
			if span > maxSpan {
				maxSpan = span
			}
		}
		if maxSpan <= 1 {
			return 0
		}
		return (maxSpan + ii - 1) / ii
	}
	// producerDemand returns producer p's demand with consumer v at t.
	producerDemand := func(p, v, t int) int {
		maxSpan := 0
		for _, ei := range s.d.OutEdges(p) {
			e := s.d.Edges[ei]
			var consT int
			switch {
			case e.To == p:
				maxSpan = maxIntSched(maxSpan, ii*e.Dist)
				continue
			case e.To == v:
				consT = t
			default:
				consT = time[e.To]
			}
			maxSpan = maxIntSched(maxSpan, consT-time[p]+ii*e.Dist)
		}
		if maxSpan <= 1 {
			return 0
		}
		return (maxSpan + ii - 1) / ii
	}
	// cost evaluates placing v at t: register demand of v and its producers,
	// with total excess span as the tie-break.
	cost := func(v, t int) (regs, excess int) {
		regs = demandOf(v, t)
		for _, ei := range s.d.InEdges(v) {
			e := s.d.Edges[ei]
			if e.From == v {
				continue
			}
			regs += producerDemand(e.From, v, t)
			if span := t - time[e.From] + ii*e.Dist; span > 1 {
				excess += span - 1
			}
		}
		for _, ei := range s.d.OutEdges(v) {
			e := s.d.Edges[ei]
			if e.To == v {
				continue
			}
			if span := time[e.To] - t + ii*e.Dist; span > 1 {
				excess += span - 1
			}
		}
		return regs, excess
	}

	for pass := 0; pass < 3; pass++ {
		moved := false
		for _, v := range order {
			if _, pinned := pin[v]; pinned {
				continue
			}
			earliest, latest := 0, -1
			hasSucc := false
			for _, ei := range s.d.InEdges(v) {
				e := s.d.Edges[ei]
				if e.From == v {
					continue
				}
				if b := time[e.From] + s.d.Nodes[e.From].Kind.Latency() - ii*e.Dist; b > earliest {
					earliest = b
				}
			}
			for _, ei := range s.d.OutEdges(v) {
				e := s.d.Edges[ei]
				if e.To == v {
					continue
				}
				hasSucc = true
				if b := time[e.To] - s.d.Nodes[v].Kind.Latency() + ii*e.Dist; latest == -1 || b < latest {
					latest = b
				}
			}
			if !hasSucc {
				latest = time[v] // sinks may only move earlier
			}
			if latest <= earliest {
				continue
			}
			isMem := s.d.Nodes[v].Kind.IsMem()
			bestT := time[v]
			bestRegs, bestExcess := cost(v, bestT)
			for t := earliest; t <= latest; t++ {
				if t == time[v] {
					continue
				}
				if t%ii != time[v]%ii {
					if alu[t%ii] >= maxPerSlot {
						continue
					}
					if isMem && mem[t%ii] >= maxMem {
						continue
					}
				}
				regs, excess := cost(v, t)
				if regs < bestRegs || (regs == bestRegs && excess < bestExcess) {
					bestT, bestRegs, bestExcess = t, regs, excess
				}
			}
			if bestT != time[v] {
				if bestT%ii != time[v]%ii {
					alu[time[v]%ii]--
					alu[bestT%ii]++
					if isMem {
						mem[time[v]%ii]--
						mem[bestT%ii]++
					}
				}
				time[v] = bestT
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

func maxIntSched(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ScheduleMinII schedules at the smallest feasible II in [startII, maxII],
// incrementing on failure, mirroring the modulo-scheduling escalation loop
// every mapper in the paper uses.
func (s *Scheduler) ScheduleMinII(startII, maxII int, opts Options) (*Result, error) {
	if startII < 1 {
		startII = 1
	}
	var lastErr error
	for ii := startII; ii <= maxII; ii++ {
		res, err := s.Schedule(ii, opts)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("sched: no schedule up to II=%d: %w", maxII, lastErr)
}

func insertSorted(xs []int, v int, less func(a, b int) bool) []int {
	i := sort.Search(len(xs), func(i int) bool { return less(v, xs[i]) })
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
