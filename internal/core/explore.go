package core

import (
	"context"
	"runtime"
	"strconv"
	"time"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/dfg"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/par"
)

// explore is Map with Options.Explore = E > 0: one par.First race of
// candidate 0, the caller's search, and candidates 1..E, the scouts
// variant(opts, s), each a whole II escalation, on GOMAXPROCS goroutines. A
// candidate succeeds when it maps at the floor max(MII, MinII), which no
// candidate can beat. The answer is the lowest II over candidates 0..winner,
// the lowest index breaking ties: what running every candidate in turn and
// stopping at the first that reaches the floor gives, so it repeats exactly
// at any GOMAXPROCS. The Stats are the answer's candidate's, with Elapsed
// covering the whole race; when no candidate maps, Map returns candidate
// 0's error. Each candidate's trace events carry its own engine label (see
// candidateLabel).
func explore(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*mapping.Mapping, *Stats, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	pes, memRows := c.MIIResources()
	mii := d.MII(pes, memRows)
	type outcome struct {
		m     *mapping.Mapping
		stats *Stats
		err   error
	}
	out := make([]outcome, 1+opts.Explore)
	won := par.First(ctx, len(out), runtime.GOMAXPROCS(0), func(ctx context.Context, _, s int) bool {
		o := &out[s]
		o.m, o.stats, o.err = escalate(ctx, d, c, variant(opts, s), candidateLabel(s))
		return o.m != nil && o.stats.II == max(mii, opts.MinII)
	})
	if err := ctx.Err(); err != nil {
		return nil, &Stats{MII: mii, Elapsed: time.Since(start)}, maperr.Aborted(err, "core: mapping %s aborted: %v", d.Name, err)
	}
	best := &out[0]
	for s := 1; s < len(out) && s <= won; s++ {
		if o := &out[s]; o.m != nil && (best.m == nil || o.stats.II < best.stats.II) {
			best = o
		}
	}
	if best.stats != nil {
		best.stats.Elapsed = time.Since(start)
	}
	return best.m, best.stats, best.err
}

// variant returns candidate s's options for explore. Candidate 0 is the
// caller's search unchanged; scout s runs s more promote-and-retry rounds
// of the grouped placement passes than the caller's search
// (Clique.GroupRounds, or clique.DefaultGroupRounds when unset). More
// rounds can place a schedule the base rounds give up on, and they feed
// learn-from-failure different partial placements, so a scout reschedules
// along its own path.
func variant(opts Options, s int) Options {
	if s <= 0 {
		return opts
	}
	rounds := opts.Clique.GroupRounds
	if rounds <= 0 {
		rounds = clique.DefaultGroupRounds
	}
	opts.Clique.GroupRounds = rounds + s
	return opts
}

// candidateLabel is the engine label of explore candidate s's trace
// events: "regimap" for the base search, so a trace of it reads as one of
// Map without Explore, and "regimap/scout<s>" for scout s.
func candidateLabel(s int) string {
	if s == 0 {
		return "regimap"
	}
	return "regimap/scout" + strconv.Itoa(s)
}
