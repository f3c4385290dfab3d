package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/sim"
)

func kernel(t *testing.T, name string) *dfg.DFG {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("kernel %s missing", name)
	}
	return k.Build()
}

// chain builds a tiny straight-line kernel: in -> add -> mul -> out-ish.
func chain() *dfg.DFG {
	b := dfg.NewBuilder("chain")
	in := b.Input("in")
	c := b.Const("c", 3)
	a := b.Op(dfg.Add, "a", in, c)
	m := b.Op(dfg.Mul, "m", a, c)
	b.Op(dfg.Add, "z", m, a)
	return b.Build()
}

func TestMapChainOptimal(t *testing.T) {
	d := chain()
	c := arch.NewMesh(4, 4, 4)
	m, st, err := Map(context.Background(), d, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no mapping")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Check(m, 4); err != nil {
		t.Fatal(err)
	}
	mii, ii, proven := st.Cert.Gap()
	if !proven {
		t.Fatalf("optimality not proven: %+v", st.Cert)
	}
	if ii != mii {
		t.Fatalf("II=%d > MII=%d on an uncontended fabric", ii, mii)
	}
}

func TestSuiteKernelsAtMII(t *testing.T) {
	c := arch.NewMesh(4, 4, 4)
	names := []string{"dotprod_sat", "autocorr_sat", "newton_recip", "iir_biquad", "mcf_relax", "lut_map"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			d := kernel(t, name)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			m, st, err := Map(ctx, d, c, Options{})
			if err != nil {
				t.Fatalf("err: %v (cert %+v)", err, st.Cert)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := sim.Check(m, 4); err != nil {
				t.Fatal(err)
			}
			if st.Cert.OptimalII == 0 {
				t.Fatalf("no optimality proof: %+v", st.Cert)
			}
			t.Logf("MII=%d II=%d vars=%d clauses=%d conflicts=%d",
				st.Cert.MII, st.Cert.BestII, st.Cert.PerII[len(st.Cert.PerII)-1].Vars,
				st.Cert.PerII[len(st.Cert.PerII)-1].Clauses, st.Cert.Conflicts)
		})
	}
}

func TestCertificateDeterminism(t *testing.T) {
	d := kernel(t, "dotprod_sat")
	c := arch.NewMesh(4, 4, 4)
	run := func(seed int64) Certificate {
		_, st, err := Map(context.Background(), d, c, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cert
	}
	a, b := run(0), run(0)
	// Scrub wall-clock fields; everything else must be identical.
	scrub := func(c *Certificate) {
		for i := range c.PerII {
			c.PerII[i].Elapsed = 0
		}
	}
	scrub(&a)
	scrub(&b)
	if a.MII != b.MII || a.BestII != b.BestII || a.OptimalII != b.OptimalII ||
		a.ProvenLowerBound != b.ProvenLowerBound || a.Conflicts != b.Conflicts ||
		a.Decisions != b.Decisions || a.Restarts != b.Restarts {
		t.Fatalf("same seed, different certificates:\n%+v\n%+v", a, b)
	}
	// A different seed may search differently but must reach the same verdicts.
	c2 := run(77)
	if c2.MII != a.MII || c2.BestII != a.BestII || c2.OptimalII != a.OptimalII ||
		c2.ProvenLowerBound != a.ProvenLowerBound {
		t.Fatalf("seed changed the verdicts:\n%+v\n%+v", a, c2)
	}
}

// diamonds builds n independent diamonds a->b->c plus a->c. The long edge
// a->c always spans >= 2 cycles, so each diamond pins one register on its
// producer's PE (routing disabled), and n diamonds need n registers total.
func diamonds(n int) *dfg.DFG {
	b := dfg.NewBuilder("diamonds")
	for i := 0; i < n; i++ {
		in := b.Input("in" + string(rune('a'+i)))
		m := b.Op(dfg.Neg, "m"+string(rune('a'+i)), in)
		b.Op(dfg.Add, "z"+string(rune('a'+i)), in, m)
	}
	return b.Build()
}

func TestLowerBoundOnTinyFabric(t *testing.T) {
	// Three registers of demand on a fabric with two: UNSAT at MII for a
	// structural reason (register files), certified and raising the bound.
	d := diamonds(3)
	c := arch.NewMesh(1, 2, 1)
	pes, memSlots := c.MIIResources()
	mii := d.MII(pes, memSlots)
	_, st, err := Map(context.Background(), d, c, Options{RouteHops: -1, MaxII: mii})
	if err == nil {
		t.Fatal("want a mapping failure")
	}
	if !errors.Is(err, maperr.ErrNoMapping) {
		t.Fatalf("want ErrNoMapping, got %v", err)
	}
	if st.Cert.ProvenLowerBound != mii+1 {
		t.Fatalf("UNSAT at MII=%d should prove lower bound %d: %+v", mii, mii+1, st.Cert)
	}
	if st.Cert.LowerBoundClass != LowerBoundChain {
		t.Fatalf("raised bound must be chain-class, got %q", st.Cert.LowerBoundClass)
	}
	if len(st.Cert.PerII) != 1 || st.Cert.PerII[0].Status != "unsat" {
		t.Fatalf("want one unsat verdict, got %+v", st.Cert.PerII)
	}
}

func TestContextCancellation(t *testing.T) {
	d := kernel(t, "sobel")
	c := arch.NewMesh(4, 4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Map(ctx, d, c, Options{})
	if err == nil {
		t.Fatal("cancelled context must abort")
	}
	if !errors.Is(err, maperr.ErrAborted) {
		t.Fatalf("want ErrAborted, got %T: %v", err, err)
	}
}

// TestCertificatePropagations pins the certificate's propagation total as
// aggregate solver effort like the other counters: positive, and the sum of
// its verdicts' (each itself summed over the II's span rungs).
func TestCertificatePropagations(t *testing.T) {
	d := kernel(t, "iir_biquad")
	c := arch.NewMesh(4, 4, 4)
	_, st, err := Map(context.Background(), d, c, Options{MaxConflicts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cert.PerII) < 2 {
		t.Fatalf("want several verdicts to sum, got %+v", st.Cert.PerII)
	}
	var sum int64
	for _, v := range st.Cert.PerII {
		if v.Propagations <= 0 {
			t.Fatalf("II=%d: no propagations recorded: %+v", v.II, v)
		}
		sum += v.Propagations
	}
	if st.Cert.Propagations != sum {
		t.Fatalf("certificate propagations %d, verdicts sum to %d", st.Cert.Propagations, sum)
	}
}
