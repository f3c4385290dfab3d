package resilient

import (
	"context"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
)

// The request's II window reaches every rung: a positive MinII or MaxII
// replaces the bound of each rung's options.
func init() {
	engine.Register(engine.Typed[Options]{
		Key:   "resilient",
		Blurb: "degradation ladder regimap→ems→dresc on a possibly-faulted fabric, with transient-fault retry and simulator certification",
		Run: func(ctx context.Context, d *dfg.DFG, c *arch.CGRA, o Options, eo engine.Options) (*engine.Result, error) {
			eo.Window(&o.Core.MinII, &o.Core.MaxII)
			eo.Window(&o.EMS.MinII, &o.EMS.MaxII)
			eo.Window(&o.DRESC.MinII, &o.DRESC.MaxII)
			out, err := Map(ctx, d, c, o)
			if err != nil {
				return nil, err
			}
			res := &engine.Result{Mapping: out.Mapping, MII: out.MII, II: out.II, Rounds: len(out.Reports), Stats: out, Elapsed: out.Elapsed}
			if out.Mapping == nil && out.Placement != nil {
				res.Artifact = out.Placement
			}
			return res, nil
		},
	})
}
