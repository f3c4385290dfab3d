package resilient

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/ems"
	"regimap/internal/fault"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/sim"
)

func kernel(t *testing.T, name string) *kernels.Kernel {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("kernel %s missing", name)
	}
	return &k
}

func TestHealthyArrayUsesTopRung(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(4, 4, 4)
	out, err := Map(context.Background(), k.Build(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungREGIMap {
		t.Fatalf("healthy array degraded to %s", out.Rung)
	}
	if out.Mapping == nil || out.Placement != nil {
		t.Fatal("REGIMap outcome must carry a Mapping")
	}
	if out.Attempt != 0 {
		t.Fatalf("Attempt = %d, want 0", out.Attempt)
	}
	if out.Fabric != c {
		t.Fatal("empty fault set must map on the input array itself")
	}
	if err := sim.Check(out.Mapping, 4); err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) != 1 || out.Reports[0].Err != nil {
		t.Fatalf("reports = %+v", out.Reports)
	}
}

func TestPermanentFaultsDegradeGracefully(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(4, 4, 4)
	fs, err := fault.Parse("pe 1,1; link 0,0-0,1; regs 2,2=1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Map(context.Background(), k.Build(), c, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	if out.Fabric == c || out.Fabric.Healthy() {
		t.Fatal("outcome must carry the faulted fabric view")
	}
	if out.Mapping != nil {
		if out.Mapping.C != out.Fabric {
			t.Fatal("mapping bound to the wrong array")
		}
		if err := out.Mapping.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Check(out.Mapping, 4); err != nil {
			t.Fatal(err)
		}
	} else if out.Placement == nil {
		t.Fatal("no mapping and no placement on a successful outcome")
	}
	if out.II < out.MII {
		t.Fatalf("II %d below MII %d", out.II, out.MII)
	}
}

func TestLadderFallsThroughOnTightBudget(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(4, 4, 4)
	// An II budget of 1 starves REGIMap (no kernel of the suite maps at
	// II=1 on 4x4); the ladder must step down instead of failing.
	out, err := Map(context.Background(), k.Build(), c, Options{Core: core.Options{MaxII: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung == RungREGIMap {
		t.Fatal("REGIMap cannot have succeeded with MaxII=1")
	}
	if len(out.Reports) < 2 {
		t.Fatalf("reports = %+v", out.Reports)
	}
	if !errors.Is(out.Reports[0].Err, maperr.ErrNoMapping) {
		t.Fatalf("rung 0 failure is not ErrNoMapping: %v", out.Reports[0].Err)
	}
}

func TestDRESCOnlyLadderReturnsPlacement(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(4, 4, 4)
	// Budgets of II 1 starve the REGIMap and EMS rungs.
	out, err := Map(context.Background(), k.Build(), c, Options{
		Core: core.Options{MaxII: 1},
		EMS:  ems.Options{MaxII: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungDRESC || out.Placement == nil || out.Mapping != nil {
		t.Fatalf("outcome = %+v", out)
	}
	if len(out.Reports) != 3 {
		t.Fatalf("reports = %+v", out.Reports)
	}
}

func TestTransientFaultsRetryAndClear(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(4, 4, 4)
	// Every PE broken for one round: round 0 must fail on every rung, round
	// 1 runs on the healthy array and succeeds.
	var faults []fault.Fault
	for r := 0; r < 4; r++ {
		for col := 0; col < 4; col++ {
			faults = append(faults, fault.Fault{Kind: fault.BrokenPE, R: r, C: col, ClearAfter: 1})
		}
	}
	fs := &fault.Set{Faults: faults}
	out, err := Map(context.Background(), k.Build(), c, Options{Faults: fs, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempt != 1 {
		t.Fatalf("Attempt = %d, want 1 (one retry after the transient cleared)", out.Attempt)
	}
	if out.Rung != RungREGIMap {
		t.Fatalf("after clearing, the top rung should win (got %s)", out.Rung)
	}
	var round0Failures int
	for _, r := range out.Reports {
		if r.Round == 0 {
			if r.Err == nil {
				t.Fatal("round 0 cannot have succeeded with every PE broken")
			}
			if r.Faults == "" {
				t.Fatal("round 0 report lost its fault set")
			}
			round0Failures++
		}
	}
	if round0Failures != 3 {
		t.Fatalf("round 0 ran %d rungs, want all 3", round0Failures)
	}
}

func TestPermanentTotalFailureDoesNotRetry(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(2, 2, 4)
	fs, err := fault.Parse("pe 0,0; pe 0,1; pe 1,0; pe 1,1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Map(context.Background(), k.Build(), c, Options{Faults: fs})
	if err == nil {
		t.Fatal("want failure with every PE broken")
	}
	if !errors.Is(err, maperr.ErrNoMapping) {
		t.Fatalf("not ErrNoMapping: %v", err)
	}
	if !strings.Contains(err.Error(), "after 1 round(s)") {
		t.Fatalf("permanent faults must not retry: %v", err)
	}
}

func TestDeadlineAbortsBackoff(t *testing.T) {
	k := kernel(t, "fir8")
	c := arch.NewMesh(2, 2, 4)
	fs, err := fault.Parse("pe 0,0~4; pe 0,1~4; pe 1,0~4; pe 1,1~4")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = Map(ctx, k.Build(), c, Options{Faults: fs, Backoff: 10 * time.Second})
	if err == nil {
		t.Fatal("want abort")
	}
	if !errors.Is(err, maperr.ErrAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrAborted wrapping DeadlineExceeded, got %v", err)
	}
}
