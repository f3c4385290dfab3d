package portfolio

import (
	"context"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
)

// The portfolio is an engine too: "portfolio" races the "regimap" engine
// over a speculative II window, folding engine.Options.MinII and MaxII into
// the base search's window as the "regimap" adapter does.

type engineMapper struct{}

func init() { engine.Register(engineMapper{}) }

func (engineMapper) Name() string { return "portfolio" }

func (engineMapper) Describe() string {
	return "REGIMap raced over a speculative II window (deterministic winner; optional budget-widened scouts)"
}

func (engineMapper) Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, eo engine.Options) (*engine.Result, error) {
	var opts Options
	switch extra := eo.Extra.(type) {
	case nil:
	case Options:
		opts = extra
	default:
		return nil, &engine.BadOptionsError{Engine: "portfolio", Want: "portfolio.Options", Got: eo.Extra}
	}
	if eo.MinII > 0 {
		opts.Base.MinII = eo.MinII
	}
	if eo.MaxII > 0 {
		opts.Base.MaxII = eo.MaxII
	}
	m, st, err := Map(ctx, d, c, opts)
	if st == nil {
		return nil, err
	}
	return &engine.Result{
		Mapping: m,
		MII:     st.MII,
		II:      st.II,
		Rounds:  st.Attempts,
		Stats:   st,
		Elapsed: st.Elapsed,
	}, err
}
