package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/kernels"
	"regimap/internal/obs"
	"regimap/internal/sim"
)

// unmappable returns a kernel/array pair no mapper can place: a wide
// synthetic kernel on a 1x2 array with no registers keeps the escalation
// loop grinding until MaxII, which the tests raise to make the search long.
func unmappable() (*dfg.DFG, *arch.CGRA) {
	d := kernels.Random(99, kernels.RandomOptions{Ops: 48, MemFraction: 0.3, Recurrence: 4})
	return d, arch.NewMesh(1, 2, 0)
}

// endless is an escalation that only a cancelled context ends.
var endless = Options{MaxII: 500, MaxTotalAttempts: 1 << 30, MaxAttemptsPerII: 1 << 20}

// mapText maps kernel name on c and renders the II and the mapping.
func mapText(t *testing.T, name string, c *arch.CGRA, opts Options) (string, *Stats) {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("kernel %q missing", name)
	}
	m, stats, err := Map(context.Background(), k.Build(), c, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sim.Check(m, 4); err != nil {
		t.Fatalf("%s: mapping mis-executes: %v", name, err)
	}
	return fmt.Sprintf("II=%d\n%s", stats.II, m), stats
}

// TestCoreDeadlineDirect: a deadline aborts core.Map within one II-attempt
// boundary, even where MaxTotalAttempts would let the search run on.
func TestCoreDeadlineDirect(t *testing.T) {
	d, c := unmappable()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := Map(ctx, d, c, endless)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("core.Map held the deadline for %v", waited)
	}
}

// TestEngineHonoursMinII: the regimap engine, given a MinII of MII+2 (as
// regimapd's min_ii passes it), maps every suite kernel at an II of at
// least MinII, and every mapping executes correctly.
func TestEngineHonoursMinII(t *testing.T) {
	c := arch.NewMesh(4, 4, 4)
	pes, memRows := c.MIIResources()
	eng := engine.MustLookup("regimap")
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			minII := k.Build().MII(pes, memRows) + 2
			res, err := eng.Map(context.Background(), k.Build(), c, engine.Options{MinII: minII})
			if err != nil {
				t.Fatal(err)
			}
			if res.II < minII {
				t.Fatalf("II %d is below MinII %d", res.II, minII)
			}
			if err := sim.Check(res.Mapping, 4); err != nil {
				t.Fatalf("mapping at MinII %d mis-executes: %v", minII, err)
			}
		})
	}
}

// TestExploreNeverWorseAndRepeats: Explore's scouts may unlock an II the
// base search misses (they do on fft_radix2 and sjeng_eval), can never do
// worse than the base search, which races too, and repeat exactly.
func TestExploreNeverWorseAndRepeats(t *testing.T) {
	c := arch.NewMesh(4, 4, 4)
	lowered := 0
	for _, name := range []string{"fft_radix2", "sjeng_eval", "sobel", "adpcm_step"} {
		_, base := mapText(t, name, c, Options{})
		first, stats := mapText(t, name, c, Options{Explore: 3})
		if stats.II > base.II {
			t.Fatalf("%s: Explore regressed the II: %d against %d for the base", name, stats.II, base.II)
		}
		if stats.II < base.II {
			lowered++
		}
		if again, _ := mapText(t, name, c, Options{Explore: 3}); again != first {
			t.Fatalf("%s: two Explore runs diverged:\n%s\n--- vs ---\n%s", name, first, again)
		}
	}
	if lowered != 2 {
		t.Fatalf("Explore lowered the II of %d kernels, want 2 (fft_radix2, sjeng_eval)", lowered)
	}
}

// TestVariantContract pins the rules the Explore race rests on: candidate
// 0 is the caller's search, and scout s differs from it only in running s
// more grouped-search rounds, from the caller's rounds or the default.
func TestVariantContract(t *testing.T) {
	for _, rounds := range []int{0, 7} {
		base := Options{MinII: 3, MaxII: 9, Workers: 2, Explore: 5}
		base.Clique.GroupRounds = rounds
		if got := variant(base, 0); !reflect.DeepEqual(got, base) {
			t.Fatalf("candidate 0 perturbed the options: %+v", got)
		}
		from := rounds
		if from == 0 {
			from = clique.DefaultGroupRounds
		}
		for s := 1; s < 12; s++ {
			want := base
			want.Clique.GroupRounds = from + s
			if v := variant(base, s); !reflect.DeepEqual(v, want) {
				t.Fatalf("scout %d from %d rounds: %+v, want %+v", s, rounds, v, want)
			}
		}
	}
}

// TestExploreCancelledPromptly: cancelling an Explore race stuck on an
// unmappable kernel aborts every candidate within one attempt, with
// context.Canceled in the error chain.
func TestExploreCancelledPromptly(t *testing.T) {
	d, c := unmappable()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	opts := endless
	opts.Explore = 3
	_, stats, err := Map(ctx, d, c, opts)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrAborted) {
		t.Fatalf("error %v does not wrap context.Canceled and ErrAborted", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancellation took %v; attempts should abort within one schedule/place round", waited)
	}
	if stats == nil || stats.II != 0 {
		t.Fatalf("aborted run reported %+v", stats)
	}
}

// TestExploreIdenticalAcrossGOMAXPROCS: the race returns the same II and
// mapping bytes at GOMAXPROCS 1 (inline, in index order), 2 and 8, where
// the base wins at the floor (adpcm_step), a scout wins (sjeng_eval, and
// alpha_blend on torus-8x8) and nobody reaches the floor (sobel). CI runs
// it under -race.
func TestExploreIdenticalAcrossGOMAXPROCS(t *testing.T) {
	torus, err := arch.Lookup("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kernel string
		c      *arch.CGRA
	}{
		{"adpcm_step", arch.NewMesh(4, 4, 4)},
		{"sjeng_eval", arch.NewMesh(4, 4, 4)},
		{"sobel", arch.NewMesh(4, 4, 4)},
		{"alpha_blend", torus},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		var want string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, _ := mapText(t, tc.kernel, tc.c, Options{Explore: 3})
			if procs == 1 {
				want = got
			} else if got != want {
				t.Fatalf("%s on %s at GOMAXPROCS %d:\n%s\n--- GOMAXPROCS 1:\n%s", tc.kernel, tc.c, procs, got, want)
			}
		}
	}
}

// TestExploreTraceLabels: every Explore candidate emits its events under its
// own engine label, the base search under "regimap" and scout s under
// "regimap/scout<s>", so a trace tells the candidates apart: no two
// map.done events share a label, and every ii.attempt carries the label of
// a candidate that emitted a map.done.
func TestExploreTraceLabels(t *testing.T) {
	c, err := arch.Lookup("paper-4x4")
	if err != nil {
		t.Fatal(err)
	}
	k, ok := kernels.ByName("fft_radix2")
	if !ok {
		t.Fatal("kernel fft_radix2 missing")
	}
	sink := &obs.MemSink{}
	ctx := obs.With(context.Background(), obs.New(sink))
	if _, _, err := Map(ctx, k.Build(), c, Options{Explore: 3}); err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{"regimap": true, "regimap/scout1": true, "regimap/scout2": true, "regimap/scout3": true}
	done := map[string]bool{}
	for _, ev := range sink.Events() {
		if !labels[ev.Engine] {
			t.Fatalf("%s event labelled %q, no Explore candidate's label", ev.Name, ev.Engine)
		}
		if ev.Name == "map.done" {
			if done[ev.Engine] {
				t.Fatalf("two map.done events labelled %q", ev.Engine)
			}
			done[ev.Engine] = true
		}
	}
	if !done["regimap"] {
		t.Fatal("the base search emitted no map.done labelled regimap")
	}
	attempts := 0
	for _, ev := range sink.Events() {
		if ev.Name == "ii.attempt" {
			attempts++
			if !done[ev.Engine] {
				t.Fatalf("ii.attempt labelled %q, a candidate with no map.done", ev.Engine)
			}
		}
	}
	if attempts == 0 {
		t.Fatal("no ii.attempt events traced")
	}
}
