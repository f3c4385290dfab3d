package core

import (
	"context"
	"runtime"
	"time"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/dfg"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/par"
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
	// Workers bounds the IIs of one escalation in flight at once (see
	// ladder.run). 0 (or less): the lowest undecided II and, while a core is
	// idle, one speculative II above it. 1: one II at a time on the
	// caller's goroutine, as a traced compile always runs. Mappings and
	// Stats are byte-identical at any value.
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
// The first two IIs run alone; when both fail, the IIs above them race on
// idle cores and are folded in II order, so the result is the sequential
// escalation's (see ladder.run and Options.Workers).
//
// Cancelling ctx aborts the search within one schedule/place attempt: the
// context is checked before every II and every attempt within an II, and
// between an attempt's phases, so a deadline bounds compile time even on
// unmappable kernels where MaxTotalAttempts would otherwise be the only
// backstop. The returned error wraps ctx.Err() when the abort was
// context-driven.
//
// A tracer in ctx (obs.With) receives per-pass and per-II-attempt events;
// without one, the instrumentation is free (see internal/obs). A traced
// compile runs its IIs one at a time, so its spans nest.
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
	return mapLadder(ctx, d, c, opts, engine, opts.ladderWorkers(obs.From(ctx).Enabled()), mapAtII)
}

// mapLadder is escalate on up to workers goroutines, each II mapped by
// mapII (see ladder.run).
func mapLadder(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options, engine string, workers int, mapII iiMapper) (*mapping.Mapping, *Stats, error) {
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
	l := &ladder{d: d, c: c, opts: opts, tr: tr, mapII: mapII, lo: max(stats.MII, opts.MinII), hi: opts.MaxIIFor(stats.MII)}
	if l.perII = opts.MaxAttemptsPerII; l.perII <= 0 {
		l.perII = d.N()/2 + 16
	}
	if l.total = opts.MaxTotalAttempts; l.total <= 0 {
		l.total = 8*d.N() + 32
	}
	m, ii := l.run(ctx, stats, workers)
	if m != nil {
		stats.II = ii
		done()
		if err := m.Validate(); err != nil {
			return nil, nil, &maperr.InvalidMappingError{Mapper: "core", What: "mapping", Err: err}
		}
		return m, stats, nil
	}
	done()
	if err := ctx.Err(); err != nil {
		return nil, stats, maperr.Aborted(err, "core: mapping %s aborted: %v", d.Name, err)
	}
	return nil, stats, maperr.NoMapping("core: no mapping for %s on %s up to II=%d", d.Name, c, l.hi)
}

// ladderWorkers resolves Workers: one II at a time when tracing, so that one
// compile's spans nest; otherwise the lowest undecided II and, on an idle
// core, one speculative II above it, unless Workers asks for another bound.
func (o Options) ladderWorkers(traced bool) int {
	switch {
	case traced || o.Workers == 1:
		return 1
	case o.Workers <= 0:
		return min(runtime.GOMAXPROCS(0), par.MaxInFlight)
	default:
		return o.Workers
	}
}

// iiMapper maps at one II within a round budget; escalate uses mapAtII, and
// tests wrap it to order the IIs of a race.
type iiMapper func(ctx context.Context, d *dfg.DFG, c *arch.CGRA, ii, budget int, opts Options, stats *Stats, tr *obs.Tracer, cb *CompatBuilder, snaps *[]Stats) *mapping.Mapping

// ladder is one II escalation: the IIs lo..hi, each given at most perII
// schedule/place rounds and all of them together at most total.
type ladder struct {
	d            *dfg.DFG
	c            *arch.CGRA
	opts         Options
	tr           *obs.Tracer
	mapII        iiMapper
	lo, hi       int
	perII, total int
}

// iiRun is what one II of a ladder returned: its mapping, the Stats
// counters it added (CompatNodes/CompatEdges: the last graph it built, 0
// when it built none), for an II that started before its real budget was
// known the counters before each of its rounds, and whether it failed under
// a done context, which may have cut it short.
type iiRun struct {
	m     *mapping.Mapping
	st    Stats
	snaps []Stats
	cut   bool
}

// run maps the ladder and folds its IIs into stats, returning the mapping
// and its II, or nil once an II ended the escalation without one or ctx
// was cancelled. The first soloIIs IIs run alone on the caller's goroutine,
// as they always did. Only when they fail do the other IIs race through
// par.First on up to workers goroutines, each II entering the
// process-wide speculation gate (par.Ladder), which starts the lowest
// undecided II at once and an II above it only on an idle core; each
// worker slot owns one compat builder, the caller's serving slot 0. An II
// started as the lowest undecided one knows its real budget; a speculative
// II runs with the full perII and keeps per-round snapshots, from which the
// fold truncates it. Every II's run depends only on its II and the rounds
// it is given, so the fold, which reads the IIs in order up to the first
// that ends the escalation, returns what the sequential loop did at any
// worker count.
func (l *ladder) run(ctx context.Context, stats *Stats, workers int) (*mapping.Mapping, int) {
	n := l.hi - l.lo + 1
	if n <= 0 {
		return nil, 0
	}
	var gate par.Ladder[iiRun]
	builders := make([]*CompatBuilder, max(workers, 1))
	builders[0] = new(CompatBuilder)
	try := func(ctx context.Context, w, i int) {
		if !gate.Enter(ctx, i) {
			return
		}
		var r iiRun
		defer func() { gate.Leave(i, r) }()
		budget, snaps := l.perII, &r.snaps
		if prior := gate.Decided(); len(prior) == i {
			var before Stats
			if _, _, ended := l.fold(prior, &before); ended {
				return // a lower II ended the escalation
			}
			budget, snaps = min(budget, l.total-before.Attempts), nil
		}
		if builders[w] == nil {
			builders[w] = new(CompatBuilder)
		}
		ii := l.lo + i
		iisp := l.tr.Start("ii.attempt")
		r.m = l.mapII(ctx, l.d, l.c, ii, budget, l.opts, &r.st, l.tr, builders[w], snaps)
		r.cut = r.m == nil && ctx.Err() != nil
		iisp.Field("ii", int64(ii))
		iisp.Field("rounds", int64(r.st.Attempts))
		iisp.FieldBool("ok", r.m != nil)
		iisp.End()
	}
	first, ended := 0, false // first: the first II to race
	for ; first < min(n, soloIIs) && !ended && ctx.Err() == nil; first++ {
		try(ctx, 0, first)
		_, _, ended = l.fold(gate.Decided(), new(Stats))
	}
	if first < n && !ended && ctx.Err() == nil {
		par.First(ctx, n-first, workers, func(ctx context.Context, w, i int) bool {
			try(ctx, w, first+i)
			_, _, ended := l.fold(gate.Decided(), new(Stats))
			return ended
		})
	}
	m, ii, _ := l.fold(gate.Decided(), stats)
	return m, ii
}

// soloIIs is how many IIs a ladder maps alone on the caller's goroutine
// before it races the rest. Most compiles map at their first or second II;
// racing from the second slowed the compiles that map there (op_ms_p50 of
// the suite rose 5-11% in two of three rounds of pairs), since the winner
// waits for the speculative II's phase in flight and shares the machine
// with it, while the compiles that climb further carry most of the time.
const soloIIs = 2

// fold adds the runs of IIs lo, lo+1, ... to st in II order, as the
// sequential loop adds them, up to the first II that ends the escalation:
// one that maps within its budget, the last one, one that spends the total
// budget, or one that failed under a done context (the loop then aborts, so
// no II above it may answer). Each II's budget is min(perII, total - the
// rounds before it), and a run that took more rounds is read from its
// snapshot at that budget, without its mapping. It returns the ending II's
// mapping and whether an II ended the escalation.
func (l *ladder) fold(runs []iiRun, st *Stats) (*mapping.Mapping, int, bool) {
	for i, r := range runs {
		budget := min(l.perII, l.total-st.Attempts)
		add, m := r.st, r.m
		if add.Attempts > budget {
			add, m = r.snaps[budget], nil // the sequential loop stopped it here
		}
		st.Attempts += add.Attempts
		st.Reschedules += add.Reschedules
		st.Thinnings += add.Thinnings
		st.RouteInserts += add.RouteInserts
		st.Recomputes += add.Recomputes
		if add.CompatNodes > 0 {
			st.CompatNodes, st.CompatEdges = add.CompatNodes, add.CompatEdges
		}
		if ii := l.lo + i; m != nil || r.cut || ii == l.hi || st.Attempts >= l.total {
			return m, ii, true
		}
	}
	return nil, 0, false
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
// cancelled ctx ends the attempt loop early (the caller reports the abort):
// it is polled before every round and between a round's phases. With snaps,
// stats is appended to it before every round.
//
// The pipeline order per round is the paper's Figure 3 loop:
//
//	PassSchedule → PassPrecheck → PassCompat → PassPlace → PassLearn
//
// with PassLearn (and the precheck shortcuts) feeding the next round's
// schedule until the round budget is spent or learning concludes the II must
// escalate.
func mapAtII(ctx context.Context, d *dfg.DFG, c *arch.CGRA, ii, maxAttempts int, opts Options, stats *Stats, tr *obs.Tracer, cb *CompatBuilder, snaps *[]Stats) *mapping.Mapping {
	a := NewAttempt(d, c, ii, opts, stats, tr)
	a.cb = cb
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		if snaps != nil {
			*snaps = append(*snaps, *stats)
		}
		stats.Attempts++
		res := a.PassSchedule()
		if res == nil {
			return nil // unschedulable at this width: escalate II
		}
		if ctx.Err() != nil {
			return nil // the phases of a round poll ctx too, so a cancelled II stops soon
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
		if err != nil || ctx.Err() != nil {
			return nil
		}
		m, unplaced := a.PassPlace(ctx, cg, res)
		if m != nil {
			return m
		}
		if ctx.Err() != nil {
			return nil
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
