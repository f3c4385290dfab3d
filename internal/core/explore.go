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
// caller's search unchanged. Every scout widens the clique search's budgets
// (more greedy seeds, more intersection re-seedings, more promote-and-retry
// rounds of the grouped passes) in a mix picked by s % 4 and widened again
// every four scouts. A wider budget can place a schedule the base budget
// gives up on, and it feeds learn-from-failure different partial
// placements, so a scout reschedules along its own path.
func variant(opts Options, s int) Options {
	if s <= 0 {
		return opts
	}
	step := 1 + (s-1)/4
	seeds := defaulted(opts.Clique.MaxSeeds, clique.DefaultMaxSeeds)
	inter := defaulted(opts.Clique.MaxIntersections, clique.DefaultMaxIntersections)
	rounds := defaulted(opts.Clique.GroupRounds, clique.DefaultGroupRounds)
	o := opts
	switch s % 4 {
	case 0: // wider greedy seeding
		o.Clique.MaxSeeds = seeds + 8*step
	case 1: // narrower seeding, deeper intersection re-seeding
		o.Clique.MaxSeeds = max(4, seeds/2)
		o.Clique.MaxIntersections = inter * (1 + step)
	case 2: // more promote-and-retry rounds
		o.Clique.GroupRounds = rounds + 2*step
	case 3: // every budget at once
		o.Clique.MaxSeeds = seeds + 4*step
		o.Clique.MaxIntersections = inter + 16*step
		o.Clique.GroupRounds = rounds + step
	}
	return o
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

func defaulted(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}
