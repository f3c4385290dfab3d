package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/exact"
	"regimap/internal/kernels"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/sim"
)

// The exact workload runs the exact engine on every suite kernel on
// paper-4x4 at a fixed per-solve conflict budget, one goroutine, in
// exactPasses passes over the kernels. Conflict budgets are
// machine-independent, so every verdict repeats exactly.

// exactConflicts is the per-solve conflict budget. At the optgap figure's
// quick budget (10 000) a few kernels that exhaust every II rung take
// seconds each and carry most of the run, which left the run-to-run spread
// of every timing above 15% on a 2-CPU VM; at 1 000 the work is spread over
// all kernels (mostly CNF encoding) and the spread is that of the suite.
const exactConflicts = 1_000

// exactPasses is how many times the kernel list is compiled per run.
const exactPasses = 2

// exactFabric is the fabric of the exact workload.
const exactFabric = "paper-4x4"

// exactWarmup is the kernel of the untimed warm-up op: small, so set-up
// stays dominated by building the oracle.
const exactWarmup = "dotprod_sat"

type exactWorkload struct {
	ds   map[string]*dfg.DFG
	ops  []compileOp                 // kernels in seed order, exactPasses times
	refs map[string]*mapping.Mapping // certified REGIMap mapping per kernel, for check
}

func (w *exactWorkload) setup(seed int64, _ obs.Sink) error {
	ds, cs, err := buildInputs([]string{exactFabric})
	if err != nil {
		return err
	}
	w.ds = ds
	c := cs[exactFabric]
	eng := engine.MustLookup("exact")
	op := func(kernel string, pass int) compileOp {
		return compileOp{
			id:     fmt.Sprintf("exact/%s/%s#%d", kernel, exactFabric, pass),
			engine: "exact", kernel: kernel, fabric: exactFabric,
			eng: eng, opts: engine.Options{Extra: exact.Options{MaxConflicts: exactConflicts}},
			d: ds[kernel], c: c,
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w.ops = w.ops[:0]
	for p := 0; p < exactPasses; p++ {
		names := kernels.Names()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for _, k := range names {
			w.ops = append(w.ops, op(k, p))
		}
	}
	// The oracle the certificates are checked against: an independently
	// computed, simulator-certified REGIMap mapping of every kernel.
	w.refs = map[string]*mapping.Mapping{}
	for _, k := range kernels.Names() {
		m, _, err := core.Map(context.Background(), ds[k], c, core.Options{})
		if err != nil {
			continue // a heuristic failing to map proves nothing
		}
		if err := sim.Check(m, simIters); err != nil {
			return fmt.Errorf("reference REGIMap mapping of %s fails simulation: %w", k, err)
		}
		w.refs[k] = m
	}
	// Warm-up: one untimed op.
	warm := op(exactWarmup, -1)
	if r := compile(context.Background(), nil, &warm); r.err != nil || r.bad != nil || r.ii == 0 {
		return fmt.Errorf("warm-up %s: no certified mapping (%v, %v)", warm.id, r.err, r.bad)
	}
	return nil
}

func (w *exactWorkload) run(ctx context.Context, tr *obs.Tracer) []opResult {
	out := make([]opResult, len(w.ops))
	for i := range w.ops {
		out[i] = compile(ctx, tr, &w.ops[i])
	}
	return out
}

// check holds every certificate against an independently certified REGIMap
// mapping of the same kernel: a proven lower bound above the II of a
// simulator-certified REGIMap mapping that stays in the route-chain class is
// a wrong proof (the rule of the repository's oracle property suite).
func (w *exactWorkload) check(res []opResult) error {
	for i := range res {
		r := &res[i]
		st, ok := r.stats.(*exact.Stats)
		if !ok {
			if r.err == nil {
				return fmt.Errorf("%s: the exact engine returned no certificate", r.id)
			}
			continue
		}
		cert := st.Cert
		if r.ii != 0 && r.ii < cert.ProvenLowerBound {
			return fmt.Errorf("%s: II %d below its own proven bound %d", r.id, r.ii, cert.ProvenLowerBound)
		}
		m := w.refs[r.kernel]
		if m == nil {
			continue
		}
		if m.II < cert.MII {
			return fmt.Errorf("%s: REGIMap II %d beats MII %d", r.id, m.II, cert.MII)
		}
		below := m.II < cert.ProvenLowerBound
		switch cert.LowerBoundClass {
		case exact.LowerBoundMII:
			if below {
				return fmt.Errorf("%s: REGIMap II %d beats the certified absolute bound %d", r.id, m.II, cert.ProvenLowerBound)
			}
		case exact.LowerBoundChain:
			if below && inRouteChainClass(w.ds[r.kernel], m, cert.RouteHops) {
				return fmt.Errorf("%s: REGIMap route-chain mapping at II %d beats the chain-class bound %d", r.id, m.II, cert.ProvenLowerBound)
			}
		default:
			return fmt.Errorf("%s: unknown lower-bound class %q", r.id, cert.LowerBoundClass)
		}
	}
	return nil
}

// inRouteChainClass reports whether a mapping stayed inside the exact
// engine's relaxation class: every node it added to the kernel is a route
// node, and no edge was stretched through a chain longer than hops.
func inRouteChainClass(orig *dfg.DFG, m *mapping.Mapping, hops int) bool {
	md := m.D
	chain := map[int]int{}
	var lenOf func(v int) int
	lenOf = func(v int) int {
		if v < orig.N() || md.Nodes[v].Kind != dfg.Route {
			return 0
		}
		if l, ok := chain[v]; ok {
			return l
		}
		in := md.InEdges(v)
		if len(in) != 1 {
			return hops + 1 // not a simple chain
		}
		l := 1 + lenOf(md.Edges[in[0]].From)
		chain[v] = l
		return l
	}
	for v := orig.N(); v < md.N(); v++ {
		if md.Nodes[v].Kind != dfg.Route || lenOf(v) > hops {
			return false
		}
	}
	return true
}

// counts totals the certificates' deterministic effort counts.
func (w *exactWorkload) counts(res []opResult) map[string]float64 {
	c := map[string]float64{}
	for i := range res {
		st, ok := res[i].stats.(*exact.Stats)
		if !ok {
			continue
		}
		c["exact.rungs"] += float64(len(st.Cert.PerII))
		c["sat.conflicts"] += float64(st.Cert.Conflicts)
		c["sat.decisions"] += float64(st.Cert.Decisions)
		c["sat.restarts"] += float64(st.Cert.Restarts)
		for _, v := range st.Cert.PerII {
			c["exact.vars"] += float64(v.Vars)
			c["exact.clauses"] += float64(v.Clauses)
			c["exact.rungs."+v.Status]++
		}
	}
	return c
}

func (w *exactWorkload) layers(res []opResult, events []obs.Event) (map[string]float64, map[string]float64, error) {
	m, det, err := engineLayers(events, true)
	if err != nil {
		return nil, nil, err
	}
	ec := w.counts(res)
	for k, v := range ec {
		det[k] = v
	}
	var solve time.Duration
	byStatus := map[string]time.Duration{}
	for i := range res {
		if st, ok := res[i].stats.(*exact.Stats); ok {
			for _, v := range st.Cert.PerII {
				byStatus[v.Status] += v.Elapsed
				solve += v.Elapsed
			}
		}
	}
	m["exact.ms.sat"] = ms(byStatus["sat"])
	m["exact.ms.unsat"] = ms(byStatus["unsat"])
	m["exact.ms.unknown"] = ms(byStatus["unknown"] + byStatus["unmappable"])
	for _, k := range []string{"exact.rungs", "exact.vars", "exact.clauses", "sat.conflicts", "sat.decisions", "sat.restarts"} {
		m[k] = ec[k]
	}
	m["sat.us_per_conflict"] = ratio(us(solve), ec["sat.conflicts"])
	return m, det, requestPathCosts(m, pathInputs(res))
}

func (w *exactWorkload) tailPct() float64 { return tailPercentile(len(w.ops)) }

func (w *exactWorkload) close() {}

// certify checks a returned mapping: it must be of the requested kernel, at
// the reported II, and compute what the sequential reference interpreter
// computes over simIters iterations.
func certify(m *mapping.Mapping, d *dfg.DFG, ii int) error {
	if m.D.Name != d.Name || m.D.N() < d.N() {
		return fmt.Errorf("mapping is of %s (%d ops), want %s (%d ops)", m.D.Name, m.D.N(), d.Name, d.N())
	}
	if m.II != ii {
		return fmt.Errorf("mapping II %d, engine reported %d", m.II, ii)
	}
	if err := sim.Check(m, simIters); err != nil {
		return fmt.Errorf("simulation: %w", err)
	}
	return nil
}
