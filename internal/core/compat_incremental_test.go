package core

import (
	"math/rand"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/sched"
)

// sameCompat fails the test unless the two compatibility graphs agree on
// every observable: candidate pairs, adjacency, each node's cluster and
// demand, and each cluster's register file.
func sameCompat(t *testing.T, trial, round int, got, want *Compat) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("trial %d round %d: %d pairs incrementally vs %d from scratch",
			trial, round, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("trial %d round %d: pair %d is %+v incrementally vs %+v from scratch",
				trial, round, i, got.Pairs[i], want.Pairs[i])
		}
		if got.G.Cluster(i) != want.G.Cluster(i) || got.G.Demand(i) != want.G.Demand(i) {
			t.Fatalf("trial %d round %d: node %d in cluster %d with demand %d incrementally vs %d with %d from scratch",
				trial, round, i, got.G.Cluster(i), got.G.Demand(i), want.G.Cluster(i), want.G.Demand(i))
		}
	}
	if got.G.Clusters() != want.G.Clusters() {
		t.Fatalf("trial %d round %d: %d clusters incrementally vs %d from scratch", trial, round, got.G.Clusters(), want.G.Clusters())
	}
	for p := 0; p < got.G.Clusters(); p++ {
		if got.G.Regs(p) != want.G.Regs(p) {
			t.Fatalf("trial %d round %d: cluster %d file %d incrementally vs %d from scratch", trial, round, p, got.G.Regs(p), want.G.Regs(p))
		}
	}
	for i := range got.Pairs {
		for j := i + 1; j < len(got.Pairs); j++ {
			if got.G.Adjacent(i, j) != want.G.Adjacent(i, j) {
				t.Fatalf("trial %d round %d: adjacency (%d,%d) = %v incrementally vs %v from scratch",
					trial, round, i, j, got.G.Adjacent(i, j), want.G.Adjacent(i, j))
			}
		}
	}
}

// perturbSchedule moves up to moves random operations by small deltas while
// keeping every dependence span legal — a stand-in for the mapping loop's
// reschedules. It returns false when no valid perturbation was found.
func perturbSchedule(rng *rand.Rand, d *dfg.DFG, times []int, ii, moves int) bool {
	changed := false
	for m := 0; m < moves; m++ {
		v := rng.Intn(d.N())
		delta := rng.Intn(5) - 2
		if delta == 0 {
			continue
		}
		nt := times[v] + delta
		if nt < 0 {
			continue
		}
		ok := true
		for _, e := range d.Edges {
			if e.From != v && e.To != v {
				continue
			}
			from, to := times[e.From], times[e.To]
			if e.From == v {
				from = nt
			}
			if e.To == v {
				to = nt
			}
			if to-from+ii*e.Dist < d.Nodes[e.From].Kind.Latency() {
				ok = false
				break
			}
		}
		if ok {
			times[v] = nt
			changed = true
		}
	}
	return changed
}

// TestCompatBuilderIncrementalMatchesScratch drives one CompatBuilder through
// sequences of simulated reschedules — small moves that exercise the
// changed-rows path and large ones that trip the full-rebuild fallback — and
// checks every incremental Build against a from-scratch BuildCompat of the
// same schedule.
func TestCompatBuilderIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	c := arch.NewMesh(3, 3, 4)
	trials := 0
	for attempt := 0; attempt < 200 && trials < 25; attempt++ {
		d := randomKernel(rng)
		sc := sched.New(d, c.NumPEs(), c.Rows)
		mii := sc.MII()
		res, err := sc.ScheduleMinII(mii, mii+6, sched.Options{})
		if err != nil {
			continue
		}
		trials++
		b, err := NewCompatBuilder(d, c, res.II, CompatOptions{})
		if err != nil {
			t.Fatalf("trial %d: NewCompatBuilder: %v", trials, err)
		}
		times := append([]int(nil), res.Time...)
		for round := 0; round < 12; round++ {
			if round > 0 {
				// Alternate between a handful of moved ops (incremental row
				// rebuild) and a broad shake-up (full-rebuild fallback).
				moves := 1 + rng.Intn(2)
				if round%4 == 3 {
					moves = d.N()
				}
				perturbSchedule(rng, d, times, res.II, moves)
			}
			got, err := b.Build(times)
			if err != nil {
				t.Fatalf("trial %d round %d: incremental Build: %v", trials, round, err)
			}
			want, err := BuildCompat(d, c, times, res.II, CompatOptions{})
			if err != nil {
				t.Fatalf("trial %d round %d: scratch BuildCompat: %v", trials, round, err)
			}
			sameCompat(t, trials, round, got, want)
		}
	}
	if trials < 10 {
		t.Fatalf("only %d schedulable trials out of 200 attempts", trials)
	}
}

// TestCompatBuilderRecoversAfterError checks that a rejected schedule leaves
// the builder untouched: the next valid Build must still match from-scratch.
func TestCompatBuilderRecoversAfterError(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	c := arch.NewMesh(2, 2, 4)
	for attempt := 0; attempt < 50; attempt++ {
		d := randomKernel(rng)
		sc := sched.New(d, c.NumPEs(), c.Rows)
		mii := sc.MII()
		res, err := sc.ScheduleMinII(mii, mii+6, sched.Options{})
		if err != nil {
			continue
		}
		b, err := NewCompatBuilder(d, c, res.II, CompatOptions{})
		if err != nil {
			t.Fatalf("NewCompatBuilder: %v", err)
		}
		if _, err := b.Build(res.Time); err != nil {
			t.Fatalf("first Build: %v", err)
		}
		// An unscheduled op and a span-violating schedule must both error out.
		bad := append([]int(nil), res.Time...)
		bad[0] = -1
		if _, err := b.Build(bad); err == nil {
			t.Fatal("Build accepted an unscheduled op")
		}
		times := append([]int(nil), res.Time...)
		perturbSchedule(rng, d, times, res.II, 2)
		got, err := b.Build(times)
		if err != nil {
			t.Fatalf("Build after error: %v", err)
		}
		want, err := BuildCompat(d, c, times, res.II, CompatOptions{})
		if err != nil {
			t.Fatalf("scratch BuildCompat: %v", err)
		}
		sameCompat(t, attempt, 0, got, want)
		return
	}
	t.Skip("no schedulable random kernel found")
}
