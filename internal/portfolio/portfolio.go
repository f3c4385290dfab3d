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
// II, ties broken in favor of the un-perturbed base search. Losers are
// cancelled as soon as they can no longer win: when racer i succeeds, every
// racer with a higher index (a worse II, or a scout at the same II) is
// cancelled immediately, and the race resolves once every lower index has
// finished.
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
	"sync"
	"sync/atomic"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/exact"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
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
	// template scouts perturb. Base.MinII is ignored — the portfolio owns II
	// escalation.
	Base core.Options
	// Exact, when non-nil, races the exact SAT engine (internal/exact)
	// beside the heuristic portfolio as an anytime refiner: the heuristics
	// answer fast, the exact engine escalates II-by-II from MII, and
	// whichever side settles the lowest II wins. The reduction stays
	// deterministic — exact always finishes every II strictly below the
	// heuristic answer (its budgets are conflict counts, so those verdicts
	// are machine-independent) and the heuristic wins ties on II — with one
	// caveat: when both sides reach the same II, which side's equally-good
	// mapping is returned can depend on timing; the II, the perf metric, and
	// the certificate's verdicts never do. Stats.Exact carries the
	// certificate either way, so even a heuristic win reports a certified
	// lower bound. nil (the default) keeps Map byte-identical to the pure
	// heuristic portfolio.
	Exact *exact.Options
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
	Cancelled int // racer runs cancelled after the winner was decided
	Panics    int // racer goroutines that panicked (recovered, not crashed)
	Elapsed   time.Duration
	// Exact is the certificate the anytime exact racer accumulated, nil
	// unless Options.Exact was set. It is attached on every outcome — a
	// heuristic win still reports the certified lower bound.
	Exact *exact.Certificate
	// ExactWinner reports that the returned mapping came from the exact
	// racer (Winner is -1 in that case: no heuristic racer won).
	ExactWinner bool
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
// winner (see the package comment for the tiebreak contract). Cancelling ctx
// aborts every racer within one schedule/place attempt.
func Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*mapping.Mapping, *Stats, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	w := opts.Attempts
	if w < 1 {
		w = 1
	}
	e := opts.Explore
	if e < 0 {
		e = 0
	}
	perII := 1 + e // base racer plus scouts, per II of the window
	tr := obs.From(ctx).Named("portfolio", d.Name)
	pes, memRows := c.MIIResources()
	stats := &Stats{MII: d.MII(pes, memRows), Winner: -1}
	tr.Point1("mii", "mii", int64(stats.MII))
	done := func() {
		stats.Elapsed = time.Since(start)
		tr.Point("map.done", "ii", int64(stats.II), "mii", int64(stats.MII), "attempts", int64(stats.Attempts))
	}
	maxII := opts.Base.MaxII
	if maxII <= 0 {
		maxII = stats.MII + 16 // mirror core.Map's default ceiling
	}
	base := engine.MustLookup("regimap")
	scouts := make([]core.Options, e)
	for s := range scouts {
		scouts[s] = Variant(opts.Base, s+1, opts.Seed)
	}
	var xr *exactRacer
	if opts.Exact != nil {
		xr = startExact(ctx, d, c, *opts.Exact)
	}
	var panics []error
	for lo := stats.MII; lo <= maxII; lo += w {
		if err := ctx.Err(); err != nil {
			if xr != nil {
				_, _, cert := xr.wait()
				stats.Exact = &cert
			}
			done()
			return nil, stats, maperr.Aborted(err, "portfolio: mapping %s aborted: %v", d.Name, err)
		}
		if xr != nil {
			// Every II below lo has already been raced heuristically and
			// failed, so an exact mapping at II <= lo can no longer be beaten.
			if em, eii := xr.best(); em != nil && eii <= lo {
				_, _, cert := xr.wait()
				stats.Exact = &cert
				stats.II, stats.Winner, stats.ExactWinner = eii, -1, true
				done()
				return em, stats, nil
			}
		}
		width := w
		if lo+width-1 > maxII {
			width = maxII - lo + 1
		}
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
			iiH := lo + winner/perII
			if xr != nil {
				// The heuristic answer bounds the exact escalation: finish
				// cancels exact work at II >= iiH, waits out the (conflict-
				// budgeted, hence deterministic) verdicts below it, and the
				// exact mapping wins only by strictly beating the heuristic.
				em, eii, cert := xr.finish(iiH)
				stats.Exact = &cert
				if em != nil && eii < iiH {
					stats.II, stats.Winner, stats.ExactWinner = eii, -1, true
					done()
					return em, stats, nil
				}
			}
			stats.II = iiH
			stats.Winner = winner
			done()
			return m, stats, nil
		}
	}
	if xr != nil {
		// The heuristics came up empty; let the exact racer finish its
		// escalation window — it may still hold or find the only mapping.
		em, eii, cert := xr.wait()
		stats.Exact = &cert
		if em != nil && ctx.Err() == nil {
			stats.II, stats.Winner, stats.ExactWinner = eii, -1, true
			done()
			return em, stats, nil
		}
	}
	done()
	if err := ctx.Err(); err != nil {
		return nil, stats, maperr.Aborted(err, "portfolio: mapping %s aborted: %v", d.Name, err)
	}
	causes := append([]error{maperr.ErrNoMapping}, panics...)
	return nil, stats, maperr.Wrap(causes, "portfolio: no mapping for %s on %s up to II=%d (window %d, %d scouts/II)", d.Name, c, maxII, w, e)
}

// exactRacer drives one exact.Run on its own goroutine, stepping II-by-II so
// the race can stop it at the exact moment more escalation became pointless.
type exactRacer struct {
	mu         sync.Mutex
	m          *mapping.Mapping
	ii         int
	cert       exact.Certificate
	stepII     int
	stepCancel context.CancelFunc
	heurBest   atomic.Int64 // lowest heuristic II found (0: none yet)
	done       chan struct{}
}

// startExact launches the exact escalation. Steps at IIs at or above the
// heuristic answer are skipped (or cancelled mid-flight); steps below it
// always run to their conflict budget, which keeps the reduction
// deterministic.
func startExact(ctx context.Context, d *dfg.DFG, c *arch.CGRA, o exact.Options) *exactRacer {
	x := &exactRacer{done: make(chan struct{})}
	go func() {
		defer close(x.done)
		r, err := exact.NewRun(d, c, o)
		if err != nil {
			x.mu.Lock()
			x.cert = r.Certificate()
			x.mu.Unlock()
			return
		}
		defer func() {
			x.mu.Lock()
			x.cert = r.Certificate()
			if m := r.Mapping(); m != nil {
				x.m, x.ii = m, x.cert.BestII
			}
			x.mu.Unlock()
		}()
		for !r.Done() {
			if bh := x.heurBest.Load(); bh != 0 && int64(r.NextII()) >= bh {
				break
			}
			stepCtx, cancel := context.WithCancel(ctx)
			x.mu.Lock()
			x.stepII, x.stepCancel = r.NextII(), cancel
			x.mu.Unlock()
			_, err := r.Step(stepCtx)
			cancel()
			x.mu.Lock()
			x.stepCancel = nil
			x.cert = r.Certificate()
			if m := r.Mapping(); m != nil {
				x.m, x.ii = m, x.cert.BestII
			}
			x.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return x
}

// best snapshots the exact racer's mapping so far, if any.
func (x *exactRacer) best() (*mapping.Mapping, int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.m, x.ii
}

// finish tells the racer the heuristics answered at heurII, cancels any
// in-flight step that can no longer win, waits for the racer to settle, and
// returns its final state.
func (x *exactRacer) finish(heurII int) (*mapping.Mapping, int, exact.Certificate) {
	x.heurBest.Store(int64(heurII))
	x.mu.Lock()
	if x.stepCancel != nil && x.stepII >= heurII {
		x.stepCancel()
	}
	x.mu.Unlock()
	return x.wait()
}

// wait blocks until the racer goroutine exits and returns its final state.
func (x *exactRacer) wait() (*mapping.Mapping, int, exact.Certificate) {
	<-x.done
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.m, x.ii, x.cert
}

// race runs k racers concurrently and resolves the deterministic winner: the
// lowest racer index that succeeded. Callers order indices by preference
// (lower II first, base search before scouts). When racer i succeeds, racers
// with higher indices are cancelled at once (they cannot win); the race
// returns as soon as every index below the best success has resolved,
// cancelling whatever else is still running. It returns a nil mapping when
// no racer succeeds. Every racer goroutine has exited by the time race
// returns, so callers never leak work past a window.
//
// A racer that panics does not crash the process or abort its siblings: the
// panic is recovered into a *maperr.WorkerPanicError on the result channel,
// the racer counts as failed, and the collected panic errors are returned so
// the caller can surface them if the whole race comes up empty.
func race(ctx context.Context, k int, stats *Stats, run func(ctx context.Context, attempt int) (*mapping.Mapping, int)) (*mapping.Mapping, int, []error) {
	runSafe := func(actx context.Context, i int) (res *mapping.Mapping, rounds int, err error) {
		defer func() {
			if v := recover(); v != nil {
				res, rounds = nil, 0
				err = &maperr.WorkerPanicError{
					Worker: fmt.Sprintf("portfolio racer %d", i),
					Value:  v,
					Stack:  debug.Stack(),
				}
			}
		}()
		res, rounds = run(actx, i)
		return res, rounds, nil
	}
	if k == 1 {
		res, rounds, err := runSafe(ctx, 0)
		stats.Attempts += rounds
		if err != nil {
			stats.Panics++
			return nil, -1, []error{err}
		}
		if res == nil {
			return nil, -1, nil
		}
		return res, 0, nil
	}
	type outcome struct {
		index  int
		result *mapping.Mapping
		rounds int
		err    error
	}
	results := make(chan outcome, k)
	cancels := make([]context.CancelFunc, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		actx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, actx context.Context) {
			defer wg.Done()
			res, rounds, err := runSafe(actx, i)
			results <- outcome{index: i, result: res, rounds: rounds, err: err}
		}(i, actx)
	}

	done := make([]bool, k)
	cancelled := make([]bool, k)
	var panics []error
	best := k
	winner := -1
	var won *mapping.Mapping
	for remaining := k; remaining > 0; remaining-- {
		o := <-results
		done[o.index] = true
		stats.Attempts += o.rounds
		if o.err != nil {
			stats.Panics++
			panics = append(panics, o.err)
		}
		if o.result != nil && o.index < best {
			best, won = o.index, o.result
			for j := best + 1; j < k; j++ {
				if !done[j] && !cancelled[j] {
					cancelled[j] = true
					stats.Cancelled++
					cancels[j]()
				}
			}
		}
		if best < k {
			decided := true
			for j := 0; j < best; j++ {
				if !done[j] {
					decided = false
					break
				}
			}
			if decided {
				winner = best
				break
			}
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	wg.Wait() // results is buffered k-deep, so racers always finish their send
	// Drain outcomes that arrived after the decision so a late panic is still
	// counted and reported.
	for drained := false; !drained; {
		select {
		case o := <-results:
			stats.Attempts += o.rounds
			if o.err != nil {
				stats.Panics++
				panics = append(panics, o.err)
			}
		default:
			drained = true
		}
	}
	if winner < 0 {
		return nil, -1, panics
	}
	return won, winner, panics
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
		o.Clique.MaxSeeds = defaulted(base.Clique.MaxSeeds, 16) + 8*step
	case 1: // narrower seeding, deeper intersection re-seeding
		o.Clique.MaxSeeds = maxInt(4, defaulted(base.Clique.MaxSeeds, 16)/2)
		o.Clique.MaxIntersections = defaulted(base.Clique.MaxIntersections, 32) * (1 + step)
	case 2: // more promote-and-retry rounds in the grouped constructive pass
		o.Clique.GroupRounds = defaulted(base.Clique.GroupRounds, 6) + 2*step
	case 3: // widen every clique budget at once: the brute-force scout
		o.Clique.MaxSeeds = defaulted(base.Clique.MaxSeeds, 16) + 4*step
		o.Clique.MaxIntersections = defaulted(base.Clique.MaxIntersections, 32) + 16*step
		o.Clique.GroupRounds = defaulted(base.Clique.GroupRounds, 6) + step
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
