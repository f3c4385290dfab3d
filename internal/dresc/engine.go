package dresc

import (
	"context"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
)

// DRESC's solution is a routed MRRG placement with no mapping.Mapping
// representation, so its Result carries it in Artifact (a *Placement) and
// leaves Mapping nil.
func init() {
	engine.Register(engine.Typed[Options]{
		Key:   "dresc",
		Blurb: "DRESC-style baseline: simulated annealing over the modulo routing resource graph (register-aware, untuned exploration)",
		Run: func(ctx context.Context, d *dfg.DFG, c *arch.CGRA, o Options, eo engine.Options) (*engine.Result, error) {
			eo.Window(&o.MinII, &o.MaxII)
			p, st, err := Map(ctx, d, c, o)
			if st == nil {
				return nil, err
			}
			res := &engine.Result{MII: st.MII, II: st.II, Rounds: st.Moves, Stats: st, Elapsed: st.Elapsed}
			if p != nil {
				res.Artifact = p
			}
			return res, err
		},
	})
}
