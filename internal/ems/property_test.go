package ems

import (
	"math/rand"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/fault"
	"regimap/internal/kernels"
)

// Property: the arena placer agrees with the reference placer (ref_test.go)
// per II attempt — same success/failure, byte-identical mapping text, same
// placement/route counts — on random kernels over every zoo fabric, healthy
// and faulted. The zoo brings the long route spans and 64-PE levels of
// torus-8x8, diagonal and distance-2 links, and restricted memory columns,
// all of which shape the route trees placeOp reuses. This is the guarantee
// the golden suite pins end-to-end, pushed down to every intermediate II the
// escalation loop visits.
func TestPlacerMatchesReference(t *testing.T) {
	names := arch.ArchNames()
	trials := 60
	if testing.Short() {
		trials = max(15, 2*len(names)) // every zoo fabric, healthy and faulted
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		d := kernels.Random(int64(trial), kernels.RandomOptions{
			Ops:         6 + rng.Intn(18),
			MemFraction: 0.2,
			Recurrence:  rng.Intn(3),
		})
		// Each zoo fabric twice in a row: healthy, then faulted.
		name := names[(trial/2)%len(names)]
		c, err := arch.Lookup(name)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if trial%2 == 1 {
			fs := fault.Random(rng, c, 1+rng.Intn(3))
			faulted, err := fs.Apply(c)
			if err != nil {
				t.Fatalf("trial %d: applying %s to %s: %v", trial, fs, name, err)
			}
			c = faulted
		}
		if c.UsablePEs() == 0 {
			continue
		}

		pes, memRows := c.MIIResources()
		mii := d.MII(pes, memRows)
		// Phase 1 — Map's real escalation pattern: one shared placer, rolled
		// back after each failed II, stopping at the first success.
		p := newPlacer(d, c)
		succeededAt := -1
		for ii := mii; ii <= mii+6; ii++ {
			got, ref := comparePlacers(t, trial, ii, p, d, c)
			if got {
				succeededAt = ii
				break
			}
			_ = ref
		}
		// Phase 2 — the IIs Map never reaches, each with a fresh placer:
		// faulted fabrics at generous IIs walk different routing paths.
		start := mii
		if succeededAt >= 0 {
			start = succeededAt + 1
		}
		for ii := start; ii <= mii+6; ii++ {
			comparePlacers(t, trial, ii, newPlacer(d, c), d, c)
		}
	}
}

// comparePlacers runs one II attempt on both placers and fails the test on
// any observable divergence; it returns the shared ok verdict.
func comparePlacers(t *testing.T, trial, ii int, p *placer, d *dfg.DFG, c *arch.CGRA) (ok, refOK bool) {
	t.Helper()
	var gotStats, refStats Stats
	got := p.placeAtII(ii, &gotStats)
	ref := refPlaceAtII(d, c, ii, &refStats)
	if (got == nil) != (ref == nil) {
		t.Fatalf("trial %d ii %d: placer ok=%v, reference ok=%v",
			trial, ii, got != nil, ref != nil)
	}
	if gotStats != refStats {
		t.Fatalf("trial %d ii %d: stats %+v, reference %+v",
			trial, ii, gotStats, refStats)
	}
	if got == nil {
		return false, false
	}
	if gs, rs := got.String(), ref.String(); gs != rs {
		t.Fatalf("trial %d ii %d: mappings diverge\n--- placer ---\n%s\n--- reference ---\n%s",
			trial, ii, gs, rs)
	}
	return true, true
}

// The steady-state attempt loop must not grow the heap: after the first
// failures warm the arena, further attempts at the same II allocate only
// what escapes into a successful mapping.
func TestPlacerAttemptReuse(t *testing.T) {
	d := kernels.Random(7, kernels.RandomOptions{Ops: 14, MemFraction: 0.2})
	c := arch.NewMesh(4, 4, 4)
	p := newPlacer(d, c)
	var s Stats
	if p.placeAtII(1, &s) != nil {
		t.Skip("kernel unexpectedly maps at II=1; pick a harder seed")
	}
	n := testing.AllocsPerRun(20, func() {
		var s Stats
		if m := p.placeAtII(1, &s); m != nil {
			t.Fatal("II=1 attempt unexpectedly succeeded")
		}
	})
	if n > 2 {
		t.Fatalf("failed attempt allocates %.1f times per run after warm-up, want <=2", n)
	}
}
