package exact

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/par"
	"regimap/internal/sat"
	"regimap/internal/sim"
)

// Options tune the exact engine. The zero value is ready to use.
type Options struct {
	// MinII / MaxII bound the II escalation (0: start at MII / stop at
	// MII+8). Starting above MII forfeits the optimality claim — the
	// certificate only calls a result optimal when every II below it,
	// down to MII, was refuted or equals MII.
	MinII, MaxII int
	// RouteHops is the per-edge route-chain budget of the relaxation class
	// (0: default 1; negative: no routing). Larger budgets admit more
	// mappings but grow the formula.
	RouteHops int
	// MaxConflicts is the per-solve conflict budget (0: 100000). Budgets are
	// in conflicts, not wall-clock, so verdicts are machine-independent. The
	// default is tuned so every suite kernel on paper-4x4 settles — proven
	// optimal or best-found II plus certified bound — well inside a
	// 60s/kernel envelope; raise it to chase optimality proofs on the
	// largest kernels at the price of slower escalation past hard IIs.
	MaxConflicts int64
	// Seed diversifies the solver's tie-breaking; any seed yields the same
	// verdicts (SAT/UNSAT are properties of the formula), possibly via a
	// different model and search path.
	Seed int64
	// LubyUnit overrides the solver restart base (0: solver default).
	LubyUnit int64
	// MaxPoints caps the encoding size in time points (0: 60000); an II
	// whose formula would exceed it gets an "unknown" verdict, never a
	// wrong one.
	MaxPoints int
}

func (o Options) routeHops() int {
	switch {
	case o.RouteHops < 0:
		return 0
	case o.RouteHops == 0:
		return 1
	case o.RouteHops > 4:
		return 4
	default:
		return o.RouteHops
	}
}

func (o Options) maxConflicts() int64 {
	if o.MaxConflicts <= 0 {
		return 100_000
	}
	return o.MaxConflicts
}

func (o Options) maxPoints() int {
	if o.MaxPoints <= 0 {
		return 60_000
	}
	return o.MaxPoints
}

// simIters is how many iterations the simulator certifies a decoded model
// for.
const simIters = 4

// Lower-bound classes: "mii" bounds are absolute (they hold for any legal
// mapping of any engine); "chain" bounds were raised by UNSAT proofs and
// hold for every mapping in the route-chain relaxation class — schedules
// whose only structural relaxation is per-edge route chains of at most
// RouteHops hops. Engines using recomputation (dfg.Duplicate) or fanout
// splitting (dfg.SplitFanout) can, in principle, beat a chain bound; none
// of the suite kernels exercise that, and the oracle property suite checks
// class membership before asserting against chain bounds.
const (
	LowerBoundMII   = "mii"
	LowerBoundChain = "chain"
)

// Verdict is the outcome of one II's decision problem. The solver counts
// sum over the II's span rungs; Vars and Clauses are the last rung's.
// Elapsed is the II's own solve time; IIs of one raced ladder run
// concurrently, so their Elapsed values overlap and sum to busy time, not
// wall time.
type Verdict struct {
	II           int
	Status       string // "sat", "unsat", "unknown", "unmappable"
	Note         string // why an unknown verdict was unknown, when known
	Vars         int
	Clauses      int
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Elapsed      time.Duration
}

// Certificate is the proof artifact of one exact run. Everything except the
// Elapsed fields is deterministic for a fixed (kernel, fabric, Options):
// budgets are counted in conflicts and each II is solved single-threaded on
// its own formula, so an II's verdict never depends on a clock, on which
// goroutine ran it or on GOMAXPROCS. Map races the IIs and folds their
// verdicts in II order, up to the first one that ends the escalation.
type Certificate struct {
	// MII is the schedule-theoretic lower bound the escalation starts from.
	MII int
	// BestII is the smallest II proven satisfiable (0: none found).
	BestII int
	// OptimalII is BestII when every II in [MII, BestII) was refuted, i.e.
	// the mapping is optimal within the relaxation class (0: not proven).
	OptimalII int
	// ProvenLowerBound is the largest k such that every II < k is known
	// infeasible: at least MII always; larger when UNSAT proofs raised it.
	ProvenLowerBound int
	// LowerBoundClass qualifies ProvenLowerBound: LowerBoundMII bounds any
	// engine absolutely, LowerBoundChain bounds the route-chain class.
	LowerBoundClass string
	// RouteHops is the relaxation class's per-edge chain budget.
	RouteHops int
	// Aggregate solver effort across all IIs tried.
	Conflicts, Decisions, Propagations, Restarts int64
	// PerII records each II's verdict in escalation order.
	PerII []Verdict
}

// Gap returns BestII/MII-style optimality information: (MII, BestII,
// proven). proven is true when BestII is certified optimal.
func (c *Certificate) Gap() (mii, ii int, proven bool) {
	return c.MII, c.BestII, c.OptimalII != 0 && c.OptimalII == c.BestII
}

// Stats is what the exact engine reports alongside its mapping.
type Stats struct {
	Cert    Certificate
	Elapsed time.Duration
}

// Map searches for a provably best mapping: for II = MII, MII+1, ... it
// decides satisfiability, stopping at the first SAT (optimal when the run
// down from MII was gapless) or when the escalation window or context is
// exhausted. The returned Stats always carries the certificate, including
// on failure, so callers can report certified lower bounds without a
// mapping.
//
// The IIs are raced (DESIGN.md section 8k): while the lowest undecided II
// runs, the next one may be solved speculatively on an idle core, and it is
// cancelled and forgotten once a lower one ends the escalation. Every II's
// verdict depends only on its formula and budget, so the answer and the
// certificate are the sequential ladder's at any worker count.
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*mapping.Mapping, *Stats, error) {
	return mapLadder(ctx, d, c, opts, min(runtime.GOMAXPROCS(0), par.MaxInFlight), solveAtII)
}

// iiSolver decides one II on a solver; Map uses solveAtII, and tests wrap it
// to order the IIs of a race.
type iiSolver func(ctx context.Context, s *sat.Solver, d *dfg.DFG, c *arch.CGRA, ii int, opts Options) (Verdict, *mapping.Mapping, error)

// iiOutcome is one II's result in a raced ladder.
type iiOutcome struct {
	v   Verdict
	m   *mapping.Mapping
	err error
}

// idle keeps the solvers of ended Map calls for later calls. Reset empties
// a solver to exactly New's state while keeping its buffers, so which
// solver a call gets never shows in a verdict; reuse only spares each
// formula, speculative ones included, the regrowth of the clause arena, the
// watcher slab and the per-variable arrays. At most GOMAXPROCS solvers
// wait, each holding at most maxIdleFootprint bytes.
var idle struct {
	mu      sync.Mutex
	solvers []*sat.Solver // most recently released last
}

// maxIdleFootprint bounds the solvers idle keeps. Regrowth weighs most
// against the solve on small formulas: a fresh solver per call made an op
// on a kernel that is SAT at MII slower than the sequential ladder, while a
// large formula's solve dwarfs its regrowth. Every
// idle byte stays live through the calls that follow, and the garbage
// collector lets the heap grow in proportion to what is live, so keeping a
// large formula's tens of MB would raise peak memory for the whole process.
const maxIdleFootprint = 4 << 20

// takeSolver returns the most recently kept idle solver, or a new one.
func takeSolver() *sat.Solver {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	n := len(idle.solvers)
	if n == 0 {
		return sat.New(sat.Options{})
	}
	s := idle.solvers[n-1]
	idle.solvers[n-1] = nil // the backing array must not keep a taken solver alive
	idle.solvers = idle.solvers[:n-1]
	return s
}

// keepSolvers offers an ended call's solvers to later calls.
func keepSolvers(ss []*sat.Solver) {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	for _, s := range ss {
		if s != nil && len(idle.solvers) < runtime.GOMAXPROCS(0) && s.Footprint() <= maxIdleFootprint {
			idle.solvers = append(idle.solvers, s)
		}
	}
}

// mapLadder is Map on up to workers goroutines. The IIs lo..hi are the
// indices of one par.First race, each decided by solve once the
// process-wide speculation gate admits it (par.Ladder, shared with
// REGIMap's ladder: the lowest undecided II always, an II above it only on
// an idle core), on its worker slot's solver: taken from idle at the
// slot's first claim, reset for every formula, and offered back when the
// race ends. An II ends the escalation when it is SAT or unmappable or
// returns an error.
// The verdicts of the IIs up to the first such one are then folded in II
// order, exactly as a sequential loop over the IIs would fold them. Only
// IIs that ran take memory, so a huge MaxII costs nothing up front.
func mapLadder(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options, workers int, solve iiSolver) (*mapping.Mapping, *Stats, error) {
	start := time.Now()
	cert := Certificate{LowerBoundClass: LowerBoundMII, RouteHops: opts.routeHops()}
	stats := func() *Stats { return &Stats{Cert: cert, Elapsed: time.Since(start)} }
	if err := d.Validate(); err != nil {
		return nil, stats(), err
	}
	pes, memSlots := c.MIIResources()
	if pes == 0 || (d.MemOps() > 0 && memSlots == 0) {
		return nil, stats(), maperr.NoMapping("exact: %s has no usable resources for %s", c, d.Name)
	}
	mii := d.MII(pes, memSlots)
	cert.MII, cert.ProvenLowerBound = mii, mii
	lo := max(mii, opts.MinII)
	hi := opts.MaxII
	if hi <= 0 {
		hi = mii + 8
	}
	hi = max(hi, lo)

	var l par.Ladder[iiOutcome]
	solvers := make([]*sat.Solver, max(workers, 1))
	won := par.First(ctx, hi-lo+1, workers, func(ctx context.Context, w, i int) bool {
		if !l.Enter(ctx, i) {
			return false
		}
		var r iiOutcome
		defer func() { l.Leave(i, r) }()
		if solvers[w] == nil {
			solvers[w] = takeSolver()
		}
		r.v, r.m, r.err = solve(ctx, solvers[w], d, c, lo+i, opts)
		return r.v.Status == "sat" || r.v.Status == "unmappable" || r.err != nil
	})
	keepSolvers(solvers)

	decided := l.Decided()
	contig := lo == mii // every II below the current one was refuted, down to MII
	for i := 0; i <= hi-lo && i <= won; i++ {
		ii := lo + i
		if i >= len(decided) {
			return nil, stats(), maperr.Aborted(ctx.Err(), "exact: aborted before II=%d", ii)
		}
		r := decided[i]
		v, err := r.v, r.err
		cert.PerII = append(cert.PerII, v)
		cert.Conflicts += v.Conflicts
		cert.Decisions += v.Decisions
		cert.Propagations += v.Propagations
		cert.Restarts += v.Restarts
		switch v.Status {
		case "sat":
			cert.BestII = ii
			if contig {
				cert.OptimalII = ii
			}
			return r.m, stats(), nil
		case "unsat":
			if contig {
				cert.ProvenLowerBound = ii + 1
				if ii+1 > cert.MII {
					cert.LowerBoundClass = LowerBoundChain
				}
			}
		case "unmappable":
			return nil, stats(), maperr.NoMapping("exact: no PE can execute op %s of %s", v.Note, d.Name)
		default:
			contig = false
			if err != nil {
				return nil, stats(), maperr.Aborted(err, "exact: aborted at II=%d", ii)
			}
		}
		if err != nil {
			return nil, stats(), err
		}
	}
	return nil, stats(), maperr.NoMapping("exact: no mapping of %s on %s for II in [%d,%d] (proven lower bound %d, class %s)",
		d.Name, c, lo, hi, cert.ProvenLowerBound, cert.LowerBoundClass)
}

// spanRungs is the ladder of span caps solveAtII escalates through: most
// mappings need only short register carries, and a tight cap shrinks the
// formula dramatically, so SAT is usually found on an early rung. Only the
// last rung (the absolute cap maxRegs*II) certifies UNSAT.
func spanRungs(c *arch.CGRA, ii int) []int {
	full := maxRegs(c) * ii
	if full < 1 {
		full = 1
	}
	rungs := []int{ii, 2 * ii, full}
	out := rungs[:0]
	for _, r := range rungs {
		if r > full {
			r = full
		}
		if len(out) == 0 || r > out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

// solveAtII decides one II on solver s: encode, solve under the conflict
// budget, and on SAT decode and certify the mapping with the validator and
// the simulator. The span-cap ladder keeps the common SAT case fast without
// weakening UNSAT certificates (see spanRungs). A done ctx, noticed during
// encoding or every solveCheckEvery conflicts, ends the II with an unknown
// verdict and ctx's error.
func solveAtII(ctx context.Context, s *sat.Solver, d *dfg.DFG, c *arch.CGRA, ii int, opts Options) (v Verdict, _ *mapping.Mapping, _ error) {
	t0 := time.Now()
	v = Verdict{II: ii}
	defer func() { v.Elapsed = time.Since(t0) }()
	rungs := spanRungs(c, ii)
	for ri, cap := range rungs {
		last := ri == len(rungs)-1
		p, bs := build(ctx, s, d, c, ii, opts, cap)
		switch bs {
		case buildCancelled:
			v.Status = "unknown"
			v.Note = "context cancelled"
			return v, nil, ctx.Err()
		case buildUnsat:
			if !last {
				continue
			}
			v.Status = "unsat"
			v.Note = "time windows infeasible"
			return v, nil, nil
		case buildUnmappable:
			v.Status = "unmappable"
			v.Note = d.Nodes[p.badNode].Name
			return v, nil, nil
		case buildTooLarge:
			// Wider rungs only grow the formula; give up now.
			v.Status = "unknown"
			v.Note = "encoding exceeds MaxPoints"
			return v, nil, nil
		}
		v.Vars, v.Clauses = p.s.NumVars(), p.s.NumClauses()
		res, err := p.s.Solve(ctx)
		ss := p.s.Stats()
		v.Conflicts += ss.Conflicts
		v.Decisions += ss.Decisions
		v.Propagations += ss.Propagations
		v.Restarts += ss.Restarts
		if err != nil {
			v.Status = "unknown"
			v.Note = "context cancelled"
			return v, nil, err
		}
		switch res {
		case sat.Sat:
			m, derr := p.decode()
			if derr != nil {
				return v, nil, &maperr.InvalidMappingError{Mapper: "exact", What: "mapping", Err: derr}
			}
			if verr := m.Validate(); verr != nil {
				return v, nil, &maperr.InvalidMappingError{Mapper: "exact", What: "mapping", Err: verr}
			}
			if serr := sim.Check(m, simIters); serr != nil {
				return v, nil, &maperr.InvalidMappingError{Mapper: "exact", What: "mapping", Err: fmt.Errorf("simulation: %w", serr)}
			}
			v.Status = "sat"
			return v, m, nil
		case sat.Unsat:
			if !last {
				continue
			}
			v.Status = "unsat"
			return v, nil, nil
		default:
			v.Status = "unknown"
			v.Note = "conflict budget exhausted"
			return v, nil, nil
		}
	}
	v.Status = "unknown"
	v.Note = "span ladder exhausted"
	return v, nil, nil
}

// engineMapper adapts Map to the unified engine contract under the name
// "exact". Options.Extra, when set, must be an exact.Options.
type engineMapper struct{}

func init() { engine.Register(engineMapper{}) }

func (engineMapper) Name() string { return "exact" }

func (engineMapper) Describe() string {
	return "exact: CDCL SAT reduction with optimality certificates — proves II == MII or a certified lower bound (DESIGN.md 8k)"
}

func (engineMapper) Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, eo engine.Options) (*engine.Result, error) {
	var opts Options
	switch extra := eo.Extra.(type) {
	case nil:
	case Options:
		opts = extra
	default:
		return nil, &engine.BadOptionsError{Engine: "exact", Want: "exact.Options", Got: eo.Extra}
	}
	if eo.MinII > 0 {
		opts.MinII = eo.MinII
	}
	if eo.MaxII > 0 {
		opts.MaxII = eo.MaxII
	}
	m, st, err := Map(ctx, d, c, opts)
	if st == nil {
		return nil, err
	}
	return &engine.Result{
		Mapping: m,
		MII:     st.Cert.MII,
		II:      st.Cert.BestII,
		Rounds:  int(st.Cert.Conflicts),
		Stats:   st,
		Elapsed: st.Elapsed,
	}, err
}
