package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/ems"
	"regimap/internal/engine"
	"regimap/internal/exact"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/obs"
)

// The suite workload is the paper's Figure 6 crossed with the architecture
// zoo: every suite kernel on every zoo fabric with REGIMap and EMS, one op
// being Map followed by sim.Check(m, simIters), issued one at a time.

// zooFabrics are the named fabrics of the architecture zoo.
var zooFabrics = []string{"paper-4x4", "adres-4x4", "onehop-4x4", "torus-8x8", "hetero-mem-col", "band2-4x4"}

// suiteEngines run at their registry defaults (sequential clique search).
var suiteEngines = []string{"regimap", "ems"}

// simIters is the iteration count every mapping is certified over (the
// regimap CLI's default certification).
const simIters = 8

// compileOp is one compile of a kernel on a fabric by one engine, timed as
// the caller waits for it: Map, then the simulator check of its mapping.
type compileOp struct {
	id                     string // stable identity, independent of the seed
	engine, kernel, fabric string
	eng                    engine.Mapper
	opts                   engine.Options
	d                      *dfg.DFG
	c                      *arch.CGRA
}

type suiteWorkload struct {
	ops []compileOp
}

// buildInputs builds every suite kernel and compiles the named fabrics.
func buildInputs(fabrics []string) (map[string]*dfg.DFG, map[string]*arch.CGRA, error) {
	ds := map[string]*dfg.DFG{}
	for _, k := range kernels.All() {
		d := k.Build()
		if err := d.Validate(); err != nil {
			return nil, nil, fmt.Errorf("kernel %s: %w", k.Name, err)
		}
		ds[k.Name] = d
	}
	cs := map[string]*arch.CGRA{}
	for _, name := range fabrics {
		c, err := arch.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		cs[name] = c
	}
	return ds, cs, nil
}

func (w *suiteWorkload) setup(seed int64, _ obs.Sink) error {
	ds, cs, err := buildInputs(zooFabrics)
	if err != nil {
		return err
	}
	w.ops = w.ops[:0]
	for _, en := range suiteEngines {
		eng, ok := engine.Lookup(en)
		if !ok {
			return fmt.Errorf("engine %q not registered", en)
		}
		for _, k := range kernels.Names() {
			for _, f := range zooFabrics {
				w.ops = append(w.ops, compileOp{id: en + "/" + k + "/" + f, engine: en, kernel: k, fabric: f, eng: eng, d: ds[k], c: cs[f]})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	// Warm-up: one untimed op per engine.
	for _, en := range suiteEngines {
		op := compileOp{id: en + "/fir8/paper-4x4", engine: en, kernel: "fir8", fabric: "paper-4x4", eng: engine.MustLookup(en), d: ds["fir8"], c: cs["paper-4x4"]}
		if r := compile(context.Background(), nil, &op); r.err != nil || r.bad != nil || r.ii == 0 {
			return fmt.Errorf("warm-up %s: no certified mapping (%v, %v)", op.id, r.err, r.bad)
		}
	}
	return nil
}

func (w *suiteWorkload) run(ctx context.Context, tr *obs.Tracer) []opResult {
	out := make([]opResult, len(w.ops))
	for i := range w.ops {
		out[i] = compile(ctx, tr, &w.ops[i])
	}
	return out
}

// compile maps one kernel and certifies the mapping in the simulator,
// timing each half. An exhausted search (maperr.ErrNoMapping) is an honest
// verdict, not a failure: the op completed with II 0.
func compile(ctx context.Context, tr *obs.Tracer, op *compileOp) opResult {
	r := opResult{id: op.id, class: "compile", engine: op.engine, kernel: op.kernel, fabric: op.fabric, scored: true}
	btr := tr.Named(op.engine, op.kernel)
	t0 := time.Now()
	sp := btr.Start("bench.map")
	res, err := op.eng.Map(ctx, op.d, op.c, op.opts)
	sp.End()
	r.mapDur = time.Since(t0)
	if res != nil {
		r.mii, r.stats = res.MII, res.Stats
	}
	switch {
	case errors.Is(err, maperr.ErrNoMapping) && !errors.Is(err, maperr.ErrAborted):
	case err != nil:
		r.err = err
	case res.Mapping == nil:
		r.bad = fmt.Errorf("engine returned no mapping and no error")
	default:
		r.ii = res.II
		r.proven = provenOptimal(res)
		sp := btr.Start("sim.check")
		r.bad = certify(res.Mapping, op.d, res.II)
		sp.End()
		r.m = res.Mapping
	}
	r.lat = time.Since(t0)
	return r
}

// provenOptimal reports whether a mapping's II is certified optimal: by the
// exact engine's certificate, or by reaching MII, which bounds every engine.
func provenOptimal(res *engine.Result) bool {
	if st, ok := res.Stats.(*exact.Stats); ok {
		_, _, proven := st.Cert.Gap()
		return proven
	}
	return res.II == res.MII
}

func (w *suiteWorkload) check(res []opResult) error {
	for i := range res {
		if r := &res[i]; r.ii != 0 && r.ii < r.mii {
			return fmt.Errorf("%s: II %d below MII %d", r.id, r.ii, r.mii)
		}
	}
	return nil
}

func (w *suiteWorkload) counts(res []opResult) map[string]float64 {
	c := map[string]float64{}
	for i := range res {
		switch st := res[i].stats.(type) {
		case *core.Stats:
			c["core.attempts"] += float64(st.Attempts)
			c["core.reschedules"] += float64(st.Reschedules)
			c["core.route_inserts"] += float64(st.RouteInserts)
			c["core.thinnings"] += float64(st.Thinnings)
		case *ems.Stats:
			c["ems.placements"] += float64(st.Placements)
			c["ems.routes"] += float64(st.Routes)
		}
	}
	return c
}

func (w *suiteWorkload) layers(res []opResult, events []obs.Event) (map[string]float64, map[string]float64, error) {
	m, det, err := engineLayers(events, true)
	if err != nil {
		return nil, nil, err
	}
	byEngine := map[string][]opResult{}
	for i := range res {
		r := &res[i]
		m[r.engine+".ms."+r.fabric] += ms(r.mapDur)
		byEngine[r.engine] = append(byEngine[r.engine], *r)
	}
	for _, en := range suiteEngines {
		m[en+".quality"] = scoreOps(byEngine[en]).quality
	}
	return m, det, requestPathCosts(m, pathInputs(res))
}

func (w *suiteWorkload) tailPct() float64 { return tailPercentile(len(w.ops)) }

func (w *suiteWorkload) close() {}
