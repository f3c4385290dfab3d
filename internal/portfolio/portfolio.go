// Package portfolio races diversified mapping attempts in parallel — the
// multi-start strategy exact and heuristic CGRA mappers use to buy back
// compile latency without changing result quality (cf. SAT-MapIt's portfolio
// solving). REGIMap's per-II search is deterministic, so the axis that
// parallelizes without touching results is the II escalation itself: a
// K-wide portfolio speculates on a window of K consecutive IIs, running the
// caller's unmodified options at each, and returns the lowest II that maps —
// exactly the II (and, the search being deterministic, exactly the mapping)
// a single sequential escalation would have reached. Parallelism buys
// wall-clock on escalation-heavy kernels; it never changes the answer.
//
// Determinism is a hard contract: the winner is the racer with the lowest
// II, ties broken in favor of the un-perturbed base search — par.First's
// lowest-index reduction over racers ordered by II, then scout slot. When
// racer i succeeds, every racer with a higher index (a worse II, or a scout
// at the same II) is cancelled at once, and the window resolves once every
// lower index has finished.
//
// Options.Explore adds the second, quality-seeking axis: at every raced II,
// E extra scouts run budget-widened variants of the base search (see
// Variant). A scout can unlock an II the base budget misses, so exploring
// portfolios may beat — never trail — the base escalation; they remain
// reproducible run-to-run for a fixed (Attempts, Explore, Seed) but are no
// longer invariant in K. Explore is off by default, which is what keeps
// `-portfolio 1` and `-portfolio K` byte-identical.
package portfolio

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/par"
)

// Failure taxonomy (regimap/internal/maperr), re-exported for callers. A
// racer goroutine that panics is isolated: the panic is recovered into a
// *maperr.WorkerPanicError (errors.Is(err, ErrWorkerPanic)), the remaining
// racers keep racing, and the panic only surfaces in the returned error when
// the whole portfolio comes up empty.
var (
	ErrNoMapping   = maperr.ErrNoMapping
	ErrAborted     = maperr.ErrAborted
	ErrWorkerPanic = maperr.ErrWorkerPanic
)

// WorkerPanicError carries the panic value and stack of a crashed racer.
type WorkerPanicError = maperr.WorkerPanicError

// Options configures a REGIMap portfolio.
type Options struct {
	// Attempts is K, the width of the speculative II window: the portfolio
	// races the base search at K consecutive IIs at a time (<=1: a single
	// attempt per II, equivalent to core.Map run one II at a time). Any K
	// returns the same mapping — wider only lowers wall-clock.
	Attempts int
	// Explore adds this many budget-widened scout searches at every raced II
	// (0: none). Scouts can unlock IIs the base budget misses, so exploring
	// portfolios may improve the II at the cost of K-invariance; results stay
	// reproducible for a fixed (Attempts, Explore, Seed).
	Explore int
	// Seed rotates which widening lands on which scout index, so distinct
	// seeds explore distinct diversification mixes. Unused when Explore is 0.
	// Deterministic for a fixed value (0 is a valid seed).
	Seed int64
	// Base configures the canonical search raced at every II and is the
	// template scouts perturb. Base.MinII and Base.MaxII bound the II window
	// exactly as they bound core.Map's escalation.
	Base core.Options
}

// Stats reports how a portfolio run went.
type Stats struct {
	MII int
	II  int // achieved II (0 when mapping failed)
	// Winner indexes the winning racer within its II window: II offset times
	// (1+Explore) plus the scout slot, so 0 is the base search at the
	// window's lowest II. -1 on failure.
	Winner    int
	Attempts  int // schedule/place rounds summed over every racer that reported back
	Races     int // IIs raced, including speculated ones a serial escalation would skip
	Cancelled int // racers above the winner that were skipped or cancelled mid-run
	Panics    int // racer goroutines that panicked (recovered, not crashed)
	Elapsed   time.Duration
}

// Perf returns the paper's performance metric MII/II (0 on failure).
func (s *Stats) Perf() float64 {
	if s.II == 0 {
		return 0
	}
	return float64(s.MII) / float64(s.II)
}

// Map races the base REGIMap search over a K-wide speculative II window —
// plus Explore budget-widened scouts per II — and returns the deterministic
// winner (see the package comment for the tiebreak contract). The window
// starts at max(MII, Base.MinII) and stops at core's ceiling for Base.MaxII.
// Cancelling ctx aborts every racer within one schedule/place attempt.
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*mapping.Mapping, *Stats, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	w := max(opts.Attempts, 1)
	e := max(opts.Explore, 0)
	perII := 1 + e // base racer plus scouts, per II of the window
	tr := obs.From(ctx).Named("portfolio", d.Name)
	pes, memRows := c.MIIResources()
	stats := &Stats{MII: d.MII(pes, memRows), Winner: -1}
	tr.Point1("mii", "mii", int64(stats.MII))
	done := func() {
		stats.Elapsed = time.Since(start)
		tr.Point("map.done", "ii", int64(stats.II), "mii", int64(stats.MII), "attempts", int64(stats.Attempts))
	}
	maxII := opts.Base.MaxIIFor(stats.MII)
	base := engine.MustLookup("regimap")
	scouts := make([]core.Options, e)
	for s := range scouts {
		scouts[s] = Variant(opts.Base, s+1, opts.Seed)
	}
	var panics []error
	for lo := max(stats.MII, opts.Base.MinII); lo <= maxII; lo += w {
		if err := ctx.Err(); err != nil {
			done()
			return nil, stats, maperr.Aborted(err, "portfolio: mapping %s aborted: %v", d.Name, err)
		}
		width := min(w, maxII-lo+1)
		stats.Races += width
		// Racer index r maps to II lo + r/perII, slot r%perII (slot 0: the
		// base search). Lower index therefore means lower II, base before
		// scouts — exactly race's preference order.
		sp := tr.Start("portfolio.window")
		m, winner, crashed := race(ctx, width*perII, stats, func(actx context.Context, r int) (*mapping.Mapping, int) {
			o := opts.Base
			if s := r % perII; s > 0 {
				o = scouts[s-1]
			}
			ii := lo + r/perII
			res, err := base.Map(actx, d, c, engine.Options{MinII: ii, MaxII: ii, Extra: o})
			rounds := 0
			if res != nil {
				rounds = res.Rounds
			}
			if err != nil || res == nil {
				return nil, rounds
			}
			return res.Mapping, rounds
		})
		sp.Field("lo", int64(lo))
		sp.Field("width", int64(width))
		sp.Field("racers", int64(width*perII))
		sp.FieldBool("ok", m != nil)
		sp.End()
		panics = append(panics, crashed...)
		if m != nil {
			stats.II = lo + winner/perII
			stats.Winner = winner
			done()
			return m, stats, nil
		}
	}
	done()
	if err := ctx.Err(); err != nil {
		return nil, stats, maperr.Aborted(err, "portfolio: mapping %s aborted: %v", d.Name, err)
	}
	causes := append([]error{maperr.ErrNoMapping}, panics...)
	return nil, stats, maperr.Wrap(causes, "portfolio: no mapping for %s on %s up to II=%d (window %d, %d scouts/II)", d.Name, c, maxII, w, e)
}

// race runs k racers concurrently through par.First, whose lowest-index
// reduction is the portfolio's winner rule: callers order indices by
// preference (lower II first, base search before scouts). It returns the
// winning mapping and index, or a nil mapping when no racer succeeds.
//
// A racer that panics does not crash the process or abort its siblings: the
// panic is recovered into a *maperr.WorkerPanicError, the racer counts as
// failed, and the panics are returned in index order so the caller can
// surface them if the whole race comes up empty.
func race(ctx context.Context, k int, stats *Stats, run func(ctx context.Context, attempt int) (*mapping.Mapping, int)) (*mapping.Mapping, int, []error) {
	type outcome struct {
		m      *mapping.Mapping
		rounds int
		err    error
		done   bool // ran to the end: neither skipped nor cancelled
	}
	out := make([]outcome, k)
	winner := par.First(ctx, k, k, func(actx context.Context, _, i int) bool {
		o := &out[i]
		defer func() {
			if v := recover(); v != nil {
				o.err = &maperr.WorkerPanicError{
					Worker: fmt.Sprintf("portfolio racer %d", i),
					Value:  v,
					Stack:  debug.Stack(),
				}
			}
			o.done = actx.Err() == nil
		}()
		o.m, o.rounds = run(actx, i)
		return o.m != nil
	})
	var panics []error
	for i, o := range out {
		stats.Attempts += o.rounds
		if o.err != nil {
			stats.Panics++
			panics = append(panics, o.err)
		}
		if i > winner && !o.done {
			stats.Cancelled++
		}
	}
	if winner == k {
		return nil, -1, panics
	}
	return out[winner].m, winner, panics
}

// Variant derives scout s's mapper configuration for Explore mode. Scout 0
// is always the unmodified base — the determinism contract depends on it.
// Higher scouts widen the clique engine's search budgets (more greedy seeds,
// more intersection re-seedings, more promote-and-retry rounds), each a
// different mix, so a scout can place a configuration the base budget gives
// up on and unlock a lower II. Widened budgets also feed learn-from-failure
// different partial cliques, so scouts reschedule along genuinely different
// paths rather than replaying the base search slower. Seed rotates the table
// so different portfolio seeds assign different widenings to the same index.
func Variant(base core.Options, scout int, seed int64) core.Options {
	if scout <= 0 {
		return base
	}
	o := base
	step := 1 + (scout-1)/4 // widen further as the scout pool grows
	offset := int(uint64(seed) % 4)
	switch (scout - 1 + offset) % 4 {
	case 0: // wider greedy seeding: more clique starting points
		o.Clique.MaxSeeds = defaulted(base.Clique.MaxSeeds, clique.DefaultMaxSeeds) + 8*step
	case 1: // narrower seeding, deeper intersection re-seeding
		o.Clique.MaxSeeds = maxInt(4, defaulted(base.Clique.MaxSeeds, clique.DefaultMaxSeeds)/2)
		o.Clique.MaxIntersections = defaulted(base.Clique.MaxIntersections, clique.DefaultMaxIntersections) * (1 + step)
	case 2: // more promote-and-retry rounds in the grouped constructive pass
		o.Clique.GroupRounds = defaulted(base.Clique.GroupRounds, clique.DefaultGroupRounds) + 2*step
	case 3: // widen every clique budget at once: the brute-force scout
		o.Clique.MaxSeeds = defaulted(base.Clique.MaxSeeds, clique.DefaultMaxSeeds) + 4*step
		o.Clique.MaxIntersections = defaulted(base.Clique.MaxIntersections, clique.DefaultMaxIntersections) + 16*step
		o.Clique.GroupRounds = defaulted(base.Clique.GroupRounds, clique.DefaultGroupRounds) + step
	}
	return o
}

func defaulted(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
