// Package resilient maps kernels onto possibly-faulty arrays through a
// degradation ladder instead of a single all-or-nothing search:
//
//  1. REGIMap (internal/core) — the paper's mapper, best II;
//  2. EMS (internal/ems) — the greedy edge-centric baseline, which routes
//     around dead regions REGIMap's clique formulation occasionally cannot;
//  3. DRESC (internal/dresc) — annealing over the MRRG, the slowest but most
//     elastic fallback (capacity-zero nodes simply price faults out).
//
// Each rung runs with its own options, II window included, on a faulted
// view of the array (internal/fault), is isolated against panics (a crashing
// rung surfaces as a *maperr.WorkerPanicError and the ladder steps down), and
// successful mappings are certified against the cycle-accurate simulator
// before being returned. When the fault set contains transient faults, the
// whole ladder retries with exponential backoff as faults clear, honouring
// the caller's context deadline — so an intermittent defect degrades service
// (a worse II or a slower mapper) instead of failing the compile.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/dresc"
	"regimap/internal/ems"
	"regimap/internal/fault"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/sim"
)

// Rung identifies one mapper of the degradation ladder, best first.
type Rung int

const (
	RungREGIMap Rung = iota
	RungEMS
	RungDRESC
)

// String names the rung.
func (r Rung) String() string {
	switch r {
	case RungREGIMap:
		return "regimap"
	case RungEMS:
		return "ems"
	case RungDRESC:
		return "dresc"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// ladder is the degradation sequence, best first.
var ladder = [...]Rung{RungREGIMap, RungEMS, RungDRESC}

// Downgrades returns the engines to fall back to, in order, when the named
// engine is unavailable (its circuit breaker is open, say). Ladder members
// step down the REGIMap→EMS→DRESC sequence from their own position; every
// other engine (exact, resilient, ...) restarts at the top of the ladder,
// resilient because it already wraps the rungs itself. The last rung
// has nowhere to go: an empty slice means "no fallback exists".
func Downgrades(name string) []string {
	start := 0
	for i, r := range ladder {
		if r.String() == name {
			start = i + 1
			break
		}
	}
	out := make([]string, 0, len(ladder)-start)
	for _, r := range ladder[start:] {
		out = append(out, r.String())
	}
	return out
}

// Options configures the resilient pipeline. The zero value maps on the
// healthy array, every rung with its own default II budget.
type Options struct {
	// Faults is the declarative fault set applied to the array (nil or empty:
	// healthy). Transient faults (ClearAfter > 0) arm the retry loop.
	Faults *fault.Set
	// Core configures the REGIMap rung, its II window included.
	Core core.Options
	// EMS configures the EMS rung, its II window included.
	EMS ems.Options
	// DRESC configures the DRESC rung, its II window included.
	DRESC dresc.Options
	// Backoff is the wait before the first retry, doubling each round
	// (0: 10ms). The wait is cut short by ctx cancellation.
	Backoff time.Duration
}

// Attempt records one rung execution for post-mortem analysis.
type Attempt struct {
	Round  int    // retry round (0 is the first try)
	Rung   Rung   // which mapper ran
	Faults string // the fault set active during the round
	Err    error  // nil on the attempt that produced the outcome
}

// Outcome is a successful resilient mapping: which rung produced it, at what
// II, on which (possibly faulted) fabric, and after how many retry rounds.
type Outcome struct {
	Rung    Rung
	MII     int // MII on the fabric the winning round mapped onto
	II      int
	Attempt int // retry round that succeeded
	// Mapping is set when the winning rung was REGIMap or EMS. DRESC results
	// are MRRG placements (multi-hop routed paths have no mapping.Mapping
	// representation) and land in Placement instead.
	Mapping   *mapping.Mapping
	Placement *dresc.Placement
	// Fabric is the faulted array view the winner mapped onto (the input
	// array itself when the active fault set was empty).
	Fabric  *arch.CGRA
	Reports []Attempt // every rung attempt, including the winner's
	Elapsed time.Duration
}

// Map runs the degradation ladder, retrying with exponential backoff while
// transient faults clear. Errors carry the maperr taxonomy: ErrAborted (with
// the ctx error) on cancellation, otherwise ErrNoMapping with every rung's
// failure in the wrap chain — including any *maperr.WorkerPanicError from a
// rung that crashed.
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*Outcome, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	// Just enough retry rounds for every transient fault to clear.
	maxRetries := opts.Faults.MaxClearAfter()
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}

	var reports []Attempt
	for round := 0; ; round++ {
		active := opts.Faults.Active(round)
		fabric, err := active.Apply(c)
		if err != nil {
			return nil, err
		}
		out, roundReports, err := runLadder(ctx, d, fabric, opts)
		reports = append(reports, stamp(roundReports, round, active)...)
		if err == nil {
			out.Attempt = round
			out.Reports = reports
			out.Elapsed = time.Since(start)
			obs.From(ctx).Named("resilient", d.Name).Point("map.done",
				"ii", int64(out.II), "mii", int64(out.MII), "attempts", int64(len(reports)))
			return out, nil
		}
		if errors.Is(err, maperr.ErrAborted) {
			return nil, err
		}
		// Retrying is only useful while the active fault set still shrinks.
		if round >= maxRetries || !active.HasTransient() {
			causes := []error{maperr.ErrNoMapping}
			for _, r := range reports {
				causes = append(causes, r.Err)
			}
			return nil, maperr.Wrap(causes,
				"resilient: no mapping for %s on %s (faults: %q) after %d round(s)",
				d.Name, c, opts.Faults.String(), round+1)
		}
		wait := backoff << round
		if max := 2 * time.Second; wait > max || wait <= 0 {
			wait = max // shift saturates; retries stay bounded and deadline-friendly
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, maperr.Aborted(ctx.Err(), "resilient: mapping %s aborted: %v", d.Name, ctx.Err())
		case <-timer.C:
		}
	}
}

// stamp fills the round and fault context into a batch of rung reports.
func stamp(reports []Attempt, round int, active *fault.Set) []Attempt {
	text := active.String()
	for i := range reports {
		reports[i].Round = round
		reports[i].Faults = text
	}
	return reports
}

// runLadder walks the rungs on one fabric until a rung succeeds. Each rung
// runs under a panic guard so a crashing mapper degrades instead of killing
// the pipeline.
func runLadder(ctx context.Context, d *dfg.DFG, fabric *arch.CGRA, opts Options) (*Outcome, []Attempt, error) {
	tr := obs.From(ctx).Named("resilient", d.Name)
	var reports []Attempt
	for _, rung := range ladder {
		sp := tr.Start("resilient.rung")
		out, err := runRung(ctx, d, fabric, rung, opts)
		sp.Field("rung", int64(rung))
		if out != nil {
			sp.Field("ii", int64(out.II))
		}
		sp.FieldBool("ok", err == nil)
		sp.End()
		reports = append(reports, Attempt{Rung: rung, Err: err})
		if err == nil {
			return out, reports, nil
		}
		if errors.Is(err, maperr.ErrAborted) {
			return nil, reports, err
		}
	}
	return nil, reports, maperr.NoMapping("resilient: every rung failed")
}

// runRung runs one rung's engine with the rung's own options under a panic
// guard, and certifies a produced mapping.
func runRung(ctx context.Context, d *dfg.DFG, fabric *arch.CGRA, rung Rung, opts Options) (out *Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			out = nil
			err = &maperr.WorkerPanicError{
				Worker: fmt.Sprintf("resilient rung %s", rung),
				Value:  v,
				Stack:  debug.Stack(),
			}
		}
	}()
	out = &Outcome{Rung: rung, Fabric: fabric}
	var m *mapping.Mapping
	switch rung {
	case RungREGIMap:
		var st *core.Stats
		if m, st, err = core.Map(ctx, d, fabric, opts.Core); err == nil {
			out.MII, out.II = st.MII, st.II
		}
	case RungEMS:
		var st *ems.Stats
		if m, st, err = ems.Map(ctx, d, fabric, opts.EMS); err == nil {
			out.MII, out.II = st.MII, st.II
		}
	case RungDRESC:
		var st *dresc.Stats
		if out.Placement, st, err = dresc.Map(ctx, d, fabric, opts.DRESC); err == nil {
			out.MII, out.II = st.MII, st.II
		}
	}
	if err != nil {
		return nil, err
	}
	if m != nil {
		if err := certify(m, rung.String()); err != nil {
			return nil, err
		}
		out.Mapping = m
	}
	return out, nil
}

// checkIters is how many iterations certify simulates a mapping for.
const checkIters = 3

// certify runs the cycle-accurate simulator against the reference interpreter
// on the freshly produced mapping; a mismatch is an internal error of the
// producing mapper, not an honest mapping failure. DRESC placements are
// verified structurally by dresc itself.
func certify(m *mapping.Mapping, mapper string) error {
	if err := sim.Check(m, checkIters); err != nil {
		return &maperr.InvalidMappingError{Mapper: mapper, What: "mapping", Err: err}
	}
	return nil
}
