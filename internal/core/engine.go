package core

import (
	"context"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
)

func init() {
	engine.Register(engine.Typed[Options]{
		Key:   "regimap",
		Blurb: "REGIMap: modulo scheduling + register-constrained maximal clique, learning from placement failures (the paper's algorithm)",
		Run: func(ctx context.Context, d *dfg.DFG, c *arch.CGRA, o Options, eo engine.Options) (*engine.Result, error) {
			eo.Window(&o.MinII, &o.MaxII)
			m, st, err := Map(ctx, d, c, o)
			if st == nil {
				return nil, err
			}
			return &engine.Result{Mapping: m, MII: st.MII, II: st.II, Rounds: st.Attempts, Stats: st, Elapsed: st.Elapsed}, err
		},
	})
}
