package core

import (
	"context"
	"time"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/dfg"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
)

// The mapper's failures carry the shared error taxonomy of
// regimap/internal/maperr, re-exported here so callers of core need not
// import both packages:
//
//	errors.Is(err, core.ErrNoMapping)  — the search space was exhausted
//	errors.Is(err, core.ErrAborted)    — the context was cancelled (the ctx
//	                                     error is also in the wrap chain)
//	errors.As(err, *core.InvalidMappingError) — internal invariant broke
var (
	ErrNoMapping = maperr.ErrNoMapping
	ErrAborted   = maperr.ErrAborted
)

// InvalidMappingError reports a mapper-internal bug: a produced mapping that
// fails its own validation.
type InvalidMappingError = maperr.InvalidMappingError

// Options configures the REGIMap mapper. The zero value is the paper's
// configuration.
type Options struct {
	// MinII raises the II the escalation starts from (0: MII). regimapd's
	// min_ii and the job path's II bounds reach it through engine.Options.
	MinII int
	// MaxII caps II escalation (0: MII + 16; see MaxIIFor).
	MaxII int
	// MaxAttemptsPerII bounds schedule/place rounds at one II (0: |V|/2+16).
	MaxAttemptsPerII int
	// MaxTotalAttempts bounds schedule/place rounds across the whole II
	// escalation, capping worst-case compile time on unmappable kernels
	// (0: 8|V|+32).
	MaxTotalAttempts int
	// DisableReschedule turns off learning from failure: a placement failure
	// immediately escalates II, like the exploratory mappers the paper
	// criticizes (the Section 6.3 ablation).
	DisableReschedule bool
	// DisableThinning turns off the virtual-resource-reduction heuristic
	// (the second learning move of Section 6.3).
	DisableThinning bool
	// DisableRouteInsertion turns off the routing-node relaxation used when
	// placement fails for lack of registers.
	DisableRouteInsertion bool
	// Compat tunes compatibility-graph construction.
	Compat CompatOptions
	// Clique tunes the clique search.
	Clique clique.Options
	// Workers > 1 races the placement passes of every attempt across that
	// many goroutines (see findPlacement). Mappings are byte-identical at
	// any value.
	Workers int
	// Explore > 0 races the base search against this many budget-widened
	// scouts (see variant), each a whole II escalation, on GOMAXPROCS
	// goroutines, and keeps the lowest II, the lowest index breaking ties.
	// A scout can unlock an II the base budget misses, so the result may
	// beat the base search but never trail it; it repeats exactly for a
	// fixed Explore.
	Explore int
}

// MaxIIFor returns the highest II the escalation tries for a kernel whose
// MII is mii: MaxII when set, MII + 16 otherwise.
func (o Options) MaxIIFor(mii int) int {
	if o.MaxII > 0 {
		return o.MaxII
	}
	return mii + 16
}

// Stats reports how a mapping attempt went.
type Stats struct {
	MII          int
	II           int // achieved II (0 when mapping failed)
	Attempts     int // schedule+place rounds across all IIs
	Reschedules  int // rounds triggered by learn-from-failure
	Thinnings    int // width reductions
	RouteInserts int // routing nodes added to relax register pressure
	Recomputes   int // loads cloned for recomputation
	CompatNodes  int // size of the last compatibility graph
	CompatEdges  int
	Elapsed      time.Duration
}

// Perf returns the paper's performance metric MII/II (1.0 = optimal), or 0
// if the mapping failed.
func (s *Stats) Perf() float64 {
	if s.II == 0 {
		return 0
	}
	return float64(s.MII) / float64(s.II)
}

// Map runs REGIMap as a pipeline of explicit passes (see pipeline.go):
// modulo-schedule the kernel, build the compatibility graph, place it with
// the weight-constrained maximal clique, and on failure learn — reschedule
// the unplaced operations earlier / at higher priority, insert routing nodes
// when registers are the bottleneck, thin the schedule width, and only then
// escalate II. The returned mapping's DFG may contain extra Route
// operations; it always passes mapping.Validate.
//
// Cancelling ctx aborts the search within one schedule/place attempt: the
// context is checked before every II escalation and before every attempt
// within an II, so a deadline bounds compile time even on unmappable kernels
// where MaxTotalAttempts would otherwise be the only backstop. The returned
// error wraps ctx.Err() when the abort was context-driven.
//
// A tracer in ctx (obs.With) receives per-pass and per-II-attempt events;
// without one, the instrumentation is free (see internal/obs).
//
// Options.Explore > 0 races budget-widened scouts against this search, each
// a whole escalation (see explore).
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*mapping.Mapping, *Stats, error) {
	if opts.Explore > 0 {
		return explore(ctx, d, c, opts)
	}
	return escalate(ctx, d, c, opts, "regimap")
}

// escalate is one II escalation: Map without Explore. Its trace events
// carry the engine label given (see explore's candidateLabel).
func escalate(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options, engine string) (*mapping.Mapping, *Stats, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	tr := obs.From(ctx).Named(engine, d.Name)
	pes, memRows := c.MIIResources()
	stats := &Stats{MII: d.MII(pes, memRows)}
	tr.Point1("mii", "mii", int64(stats.MII))
	done := func() {
		stats.Elapsed = time.Since(start)
		tr.Point("map.done", "ii", int64(stats.II), "mii", int64(stats.MII), "attempts", int64(stats.Attempts))
	}
	if !c.Healthy() || !c.TrivialBuses() {
		if c.UsablePEs() == 0 {
			done()
			return nil, stats, maperr.NoMapping("core: no mapping for %s on %s: every PE is broken", d.Name, c)
		}
		if c.MemSlotCapacity() == 0 && hasMemOps(d) {
			done()
			return nil, stats, maperr.NoMapping("core: no mapping for %s on %s: no bus can issue memory operations", d.Name, c)
		}
	}
	maxII := opts.MaxIIFor(stats.MII)
	startII := max(stats.MII, opts.MinII)
	maxAttempts := opts.MaxAttemptsPerII
	if maxAttempts <= 0 {
		maxAttempts = d.N()/2 + 16
	}
	totalBudget := opts.MaxTotalAttempts
	if totalBudget <= 0 {
		totalBudget = 8*d.N() + 32
	}

	// One compat builder serves every II and route insertion of this call.
	cb := new(CompatBuilder)
	for ii := startII; ii <= maxII && stats.Attempts < totalBudget; ii++ {
		if err := ctx.Err(); err != nil {
			done()
			return nil, stats, maperr.Aborted(err, "core: mapping %s aborted: %v", d.Name, err)
		}
		budget := maxAttempts
		if rest := totalBudget - stats.Attempts; rest < budget {
			budget = rest
		}
		rounds := stats.Attempts
		iisp := tr.Start("ii.attempt")
		m := mapAtII(ctx, d, c, ii, budget, opts, stats, tr, cb)
		iisp.Field("ii", int64(ii))
		iisp.Field("rounds", int64(stats.Attempts-rounds))
		iisp.FieldBool("ok", m != nil)
		iisp.End()
		if m != nil {
			stats.II = ii
			done()
			if err := m.Validate(); err != nil {
				return nil, nil, &maperr.InvalidMappingError{Mapper: "core", What: "mapping", Err: err}
			}
			return m, stats, nil
		}
	}
	done()
	if err := ctx.Err(); err != nil {
		return nil, stats, maperr.Aborted(err, "core: mapping %s aborted: %v", d.Name, err)
	}
	return nil, stats, maperr.NoMapping("core: no mapping for %s on %s up to II=%d", d.Name, c, maxII)
}

// hasMemOps reports whether the kernel contains any load or store.
func hasMemOps(d *dfg.DFG) bool {
	for _, nd := range d.Nodes {
		if nd.Kind.IsMem() {
			return true
		}
	}
	return false
}

// mapAtII attempts to map at one fixed II by driving the pass pipeline over
// a fresh Attempt, which resets and reuses cb, returning nil to escalate. A
// cancelled ctx ends the attempt loop early (the caller reports the abort).
//
// The pipeline order per round is the paper's Figure 3 loop:
//
//	PassSchedule → PassPrecheck → PassCompat → PassPlace → PassLearn
//
// with PassLearn (and the precheck shortcuts) feeding the next round's
// schedule until the round budget is spent or learning concludes the II must
// escalate.
func mapAtII(ctx context.Context, d *dfg.DFG, c *arch.CGRA, ii, maxAttempts int, opts Options, stats *Stats, tr *obs.Tracer, cb *CompatBuilder) *mapping.Mapping {
	a := NewAttempt(d, c, ii, opts, stats, tr)
	a.cb = cb
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		stats.Attempts++
		res := a.PassSchedule()
		if res == nil {
			return nil // unschedulable at this width: escalate II
		}
		skip, proceed := a.PassPrecheck(res)
		if !proceed {
			// Placement is pointless (duplicate schedule, or a register-
			// carried component that cannot fit a PE): go straight to the
			// stronger relaxations.
			if !a.PassRelax(res, skip) {
				return nil
			}
			continue
		}
		cg, err := a.PassCompat(res)
		if err != nil {
			return nil
		}
		m, unplaced := a.PassPlace(ctx, cg, res)
		if m != nil {
			return m
		}
		if opts.DisableReschedule {
			return nil // exploratory behaviour: fail straight to II+1
		}
		if !a.PassLearn(res, unplaced) {
			return nil
		}
	}
	return nil
}
