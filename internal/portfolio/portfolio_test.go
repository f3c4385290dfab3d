package portfolio

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/kernels"
	"regimap/internal/mapping"
	"regimap/internal/sim"
)

// unmappable returns a kernel/array pair no mapper can place: a wide
// synthetic kernel on a 1x2 array with no registers keeps the escalation
// loop grinding until MaxII, which the tests raise to make the search long.
func unmappable() (*dfg.DFG, *arch.CGRA) {
	d := kernels.Random(99, kernels.RandomOptions{Ops: 48, MemFraction: 0.3, Recurrence: 4})
	return d, arch.NewMesh(1, 2, 0)
}

// TestDeterministicAcrossK is the acceptance contract: on the whole
// benchmark suite a K-wide portfolio returns a byte-identical mapping, the
// same II, and the same winner as a portfolio of one — from MII, and from a
// MinII of MII+2 passed through the engine adapter, where the II must not
// drop below MinII.
func TestDeterministicAcrossK(t *testing.T) {
	c := arch.NewMesh(4, 4, 4)
	pes, memRows := c.MIIResources()
	eng := engine.MustLookup("portfolio")
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			for _, minII := range []int{0, k.Build().MII(pes, memRows) + 2} {
				run := func(attempts int) (*mapping.Mapping, *Stats, error) {
					res, err := eng.Map(context.Background(), k.Build(), c, engine.Options{MinII: minII, Extra: Options{Attempts: attempts}})
					if res == nil {
						return nil, nil, err
					}
					return res.Mapping, res.Stats.(*Stats), err
				}
				m1, s1, err1 := run(1)
				m4, s4, err4 := run(4)
				if (err1 == nil) != (err4 == nil) {
					t.Fatalf("MinII %d: K=1 err=%v, K=4 err=%v", minII, err1, err4)
				}
				if err1 != nil {
					continue
				}
				if s1.II != s4.II {
					t.Fatalf("MinII %d: K=1 II=%d, K=4 II=%d", minII, s1.II, s4.II)
				}
				if s1.II < minII {
					t.Fatalf("II %d is below MinII %d", s1.II, minII)
				}
				if s1.Winner != 0 {
					t.Fatalf("MinII %d: K=1 winner %d, want 0", minII, s1.Winner)
				}
				if got, want := m4.String(), m1.String(); got != want {
					t.Fatalf("MinII %d: K=4 mapping differs from K=1 (winner %d):\n%s\n--- vs ---\n%s", minII, s4.Winner, got, want)
				}
				if err := sim.Check(m4, 4); err != nil {
					t.Fatalf("MinII %d: portfolio winner mis-executes: %v", minII, err)
				}
			}
		})
	}
}

// TestRepeatedRunsIdentical checks run-to-run reproducibility at a fixed K
// and seed, including the reported winner index.
func TestRepeatedRunsIdentical(t *testing.T) {
	k, ok := kernels.ByName("fir8")
	if !ok {
		t.Skip("fir8 kernel missing")
	}
	c := arch.NewMesh(4, 4, 4)
	m1, s1, err := Map(context.Background(), k.Build(), c, Options{Attempts: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, s2, err := Map(context.Background(), k.Build(), c, Options{Attempts: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s1.II != s2.II || s1.Winner != s2.Winner || m1.String() != m2.String() {
		t.Fatalf("two identical runs diverged: II %d/%d winner %d/%d", s1.II, s2.II, s1.Winner, s2.Winner)
	}
}

// TestCancellationMidEscalation cancels a portfolio stuck escalating on an
// unmappable kernel and requires a prompt, attributed abort.
func TestCancellationMidEscalation(t *testing.T) {
	d, c := unmappable()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := Map(ctx, d, c, Options{Attempts: 4, Base: core.Options{MaxII: 200, MaxTotalAttempts: 1 << 30, MaxAttemptsPerII: 1 << 20}})
	if err == nil {
		t.Fatal("cancelled portfolio returned a mapping on an unmappable kernel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancellation took %v; attempts should abort within one schedule/place round", waited)
	}
	if stats == nil || stats.II != 0 {
		t.Fatalf("aborted run reported II %v", stats)
	}
}

// TestDeadlineOnUnmappableKernel is the timeout contract: a context deadline
// bounds compile time on a kernel where MaxTotalAttempts would otherwise be
// the only backstop.
func TestDeadlineOnUnmappableKernel(t *testing.T) {
	d, c := unmappable()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := Map(ctx, d, c, Options{Attempts: 3, Base: core.Options{MaxII: 200, MaxTotalAttempts: 1 << 30, MaxAttemptsPerII: 1 << 20}})
	if err == nil {
		t.Fatal("deadline-bound portfolio returned a mapping on an unmappable kernel")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestCoreDeadlineDirect exercises the same contract one layer down on
// core.Map itself: the deadline must abort within one II-attempt boundary.
func TestCoreDeadlineDirect(t *testing.T) {
	d, c := unmappable()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := core.Map(ctx, d, c, core.Options{MaxII: 500, MaxTotalAttempts: 1 << 30, MaxAttemptsPerII: 1 << 20})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("core.Map held the deadline for %v", waited)
	}
}

// TestExploreReproducibleAndNeverWorse exercises the opt-in quality axis:
// budget-widened scouts may unlock an II the base search misses (they do on
// fft_radix2), can never do worse than the base escalation — the base search
// races at every II too — and repeat exactly for a fixed configuration.
func TestExploreReproducibleAndNeverWorse(t *testing.T) {
	k, ok := kernels.ByName("fft_radix2")
	if !ok {
		t.Skip("fft_radix2 kernel missing")
	}
	c := arch.NewMesh(4, 4, 4)
	_, sBase, err := Map(context.Background(), k.Build(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	explore := Options{Attempts: 2, Explore: 3}
	m1, s1, err := Map(context.Background(), k.Build(), c, explore)
	if err != nil {
		t.Fatal(err)
	}
	if s1.II > sBase.II {
		t.Fatalf("exploring portfolio regressed II: %d vs base %d", s1.II, sBase.II)
	}
	m2, s2, err := Map(context.Background(), k.Build(), c, explore)
	if err != nil {
		t.Fatal(err)
	}
	if s1.II != s2.II || s1.Winner != s2.Winner || m1.String() != m2.String() {
		t.Fatalf("explore runs diverged: II %d/%d winner %d/%d", s1.II, s2.II, s1.Winner, s2.Winner)
	}
	if err := sim.Check(m1, 4); err != nil {
		t.Fatalf("explore winner mis-executes: %v", err)
	}
}

// TestVariantContract pins the diversification rules the determinism
// argument rests on: scout 0 is always the base, and scouts only perturb
// clique budgets — never the II window or the learning switches.
func TestVariantContract(t *testing.T) {
	base := core.Options{MaxII: 9}
	if got := Variant(base, 0, 12345); !reflect.DeepEqual(got, base) {
		t.Fatalf("scout 0 perturbed the base options: %+v", got)
	}
	for seed := int64(0); seed < 4; seed++ {
		for s := 1; s < 12; s++ {
			v := Variant(base, s, seed)
			if v.MinII != base.MinII || v.MaxII != base.MaxII {
				t.Fatalf("scout %d/seed %d moved the II window", s, seed)
			}
			if v.DisableReschedule || v.DisableThinning || v.DisableRouteInsertion {
				t.Fatalf("scout %d/seed %d disabled a learning move", s, seed)
			}
			if reflect.DeepEqual(v, base) {
				t.Fatalf("scout %d/seed %d is not diversified", s, seed)
			}
		}
	}
}
