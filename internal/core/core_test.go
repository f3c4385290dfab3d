package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"regimap/internal/arch"
	"regimap/internal/dfg"
)

// fig2DFG is the paper's Figure 2 kernel: a->b->c->d plus a->d.
func fig2DFG() *dfg.DFG {
	b := dfg.NewBuilder("fig2")
	a := b.Input("a")
	bb := b.Op(dfg.Neg, "b", a)
	c := b.Op(dfg.Neg, "c", bb)
	b.Op(dfg.Add, "d", c, a)
	return b.Build()
}

func rec3DFG() *dfg.DFG {
	b := dfg.NewBuilder("rec3")
	x := b.Input("x")
	p := b.Op(dfg.Add, "p", x)
	q := b.Op(dfg.Neg, "q", p)
	r := b.Op(dfg.Neg, "r", q)
	b.EdgeDist(r, p, 1, 1)
	return b.Build()
}

// TestFigure2WithRegisters reproduces the paper's headline example: on a 1x2
// CGRA with 2 registers per PE, REGIMap maps the kernel at II=2 (Figure 2d),
// which is only possible because registers carry a's value to d.
func TestFigure2WithRegisters(t *testing.T) {
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	m, stats, err := Map(context.Background(), d, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.II != 2 {
		t.Fatalf("II = %d, want 2 (the paper's Figure 2d)", stats.II)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Perf() != 1.0 {
		t.Errorf("Perf = %v, want 1.0 (MII achieved)", stats.Perf())
	}
}

// TestFigure2WithoutRegisters checks the other half of the paper's argument:
// removing the register files forces a worse II (the value must be routed
// through PEs instead, occupying compute slots).
func TestFigure2WithoutRegisters(t *testing.T) {
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 0)
	m, stats, err := Map(context.Background(), d, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.II <= 2 {
		t.Fatalf("II = %d without registers, want > 2", stats.II)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.RouteInserts == 0 {
		t.Error("register-free mapping should have inserted routing nodes")
	}
}

func TestRecurrenceKernel(t *testing.T) {
	d := rec3DFG()
	c := arch.NewMesh(4, 4, 4)
	m, stats, err := Map(context.Background(), d, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MII != 3 {
		t.Fatalf("MII = %d, want 3", stats.MII)
	}
	if stats.II != 3 {
		t.Errorf("II = %d, want 3 (rec-bounded loops have slack)", stats.II)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildCompatFigure5Shape(t *testing.T) {
	// The paper's Figure 5: a scheduled 4-op DFG on a 1x2 CGRA at II=2
	// yields a compatibility graph of 8 nodes (vs 16 in the raw product with
	// II time slots), because scheduling fixed the time dimension.
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	times := []int{0, 1, 2, 3}
	cg, err := BuildCompat(d, c, times, 2, CompatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cg.Nodes() != 8 {
		t.Errorf("compat nodes = %d, want 8 (4 ops x 2 PEs)", cg.Nodes())
	}
	if cg.Edges() == 0 {
		t.Error("compatibility graph has no edges")
	}
	for v := 0; v < d.N(); v++ {
		if len(cg.Candidates(v)) != 2 {
			t.Errorf("op %d has %d candidates, want 2", v, len(cg.Candidates(v)))
		}
	}
}

func TestCompatWeightsMatchFigure2(t *testing.T) {
	// In Figure 2(d): a and d on PE 1 at times 0 and 3, II=2. The value of a
	// lives 3 cycles, so it occupies ceil(3/2)=2 rotating registers of PE 1 —
	// exactly the paper's "two registers are required in PE 2". In our
	// encoding a's binding demands 2 registers of PE 1's file and d's none,
	// so the clique {a@PE1, d@PE1} loads PE 1 with the paper's two
	// registers, against PE 1's 4-register file.
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 4)
	cg, err := BuildCompat(d, c, []int{0, 1, 2, 3}, 2, CompatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var aOnPE1, dOnPE1 = -1, -1
	for id, p := range cg.Pairs {
		if p.Op == 0 && p.PE == 1 {
			aOnPE1 = id
		}
		if p.Op == 3 && p.PE == 1 {
			dOnPE1 = id
		}
	}
	if aOnPE1 < 0 || dOnPE1 < 0 {
		t.Fatal("expected pairs missing")
	}
	if !cg.G.Adjacent(aOnPE1, dOnPE1) {
		t.Fatal("(PE1,a) and (PE1,d) must be compatible")
	}
	if got := cg.G.Demand(aOnPE1); got != 2 {
		t.Errorf("demand(a@PE1) = %d, want 2 (the paper's two registers)", got)
	}
	if cg.G.Cluster(aOnPE1) != 1 || cg.G.Cluster(dOnPE1) != 1 {
		t.Errorf("a@PE1 and d@PE1 in clusters %d and %d, want PE 1's", cg.G.Cluster(aOnPE1), cg.G.Cluster(dOnPE1))
	}
	if load := cg.G.Demand(aOnPE1) + cg.G.Demand(dOnPE1); load != 2 || cg.G.Regs(1) != 4 {
		t.Errorf("PE 1 load %d of a %d-register file, want 2 of 4 (the PE total)", load, cg.G.Regs(1))
	}
	if !cg.G.IsFeasibleClique([]int{aOnPE1, dOnPE1}) {
		t.Error("{a@PE1, d@PE1} must fit PE 1's file")
	}
	// Cross-PE binding of a register-carried pair must be incompatible.
	var aOnPE0 = -1
	for id, p := range cg.Pairs {
		if p.Op == 0 && p.PE == 0 {
			aOnPE0 = id
		}
	}
	if cg.G.Adjacent(aOnPE0, dOnPE1) {
		t.Error("register-carried dependence across PEs must be incompatible")
	}
}

func TestCompatSelfRecurrenceBase(t *testing.T) {
	b := dfg.NewBuilder("acc")
	x := b.Input("x")
	acc := b.Op(dfg.Add, "acc", x)
	b.EdgeDist(acc, acc, 1, 1)
	d := b.Build()
	c := arch.NewMesh(1, 2, 2)
	cg, err := BuildCompat(d, c, []int{0, 1}, 2, CompatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// acc's self edge spans 2 at II=2: one register wherever acc lands.
	for _, id := range cg.Candidates(acc) {
		if got := cg.G.Demand(id); got != 1 {
			t.Errorf("demand = %d, want 1", got)
		}
	}
	for _, id := range cg.Candidates(x) {
		if got := cg.G.Demand(id); got != 0 {
			t.Errorf("input demand = %d, want 0", got)
		}
	}
}

func TestCompatMemoryBusIncompatibility(t *testing.T) {
	b := dfg.NewBuilder("mem2")
	a1 := b.Input("a1")
	a2 := b.Input("a2")
	b.Op(dfg.Load, "l1", a1)
	b.Op(dfg.Load, "l2", a2)
	d := b.Build()
	c := arch.NewMesh(1, 4, 2) // single row: one shared bus
	// Both loads scheduled in the same modulo slot.
	cg, err := BuildCompat(d, c, []int{0, 0, 1, 1}, 2, CompatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var l1p0, l2p2 = -1, -1
	for id, p := range cg.Pairs {
		if p.Op == 2 && p.PE == 0 {
			l1p0 = id
		}
		if p.Op == 3 && p.PE == 2 {
			l2p2 = id
		}
	}
	if cg.G.Adjacent(l1p0, l2p2) {
		t.Error("two same-slot loads on one row must be incompatible")
	}
}

func TestCompatErrors(t *testing.T) {
	d := fig2DFG()
	c := arch.NewMesh(1, 2, 2)
	if _, err := BuildCompat(d, c, []int{0, 1}, 2, CompatOptions{}); err == nil {
		t.Error("accepted wrong times length")
	}
	if _, err := BuildCompat(d, c, []int{0, 1, 2, 3}, 0, CompatOptions{}); err == nil {
		t.Error("accepted II=0")
	}
	if _, err := BuildCompat(d, c, []int{0, -1, 2, 3}, 2, CompatOptions{}); err == nil {
		t.Error("accepted unscheduled op")
	}
	if _, err := BuildCompat(d, c, []int{3, 1, 2, 3}, 2, CompatOptions{}); err == nil {
		t.Error("accepted schedule violating dependences")
	}
	// Heterogeneous array where no PE supports Mul.
	bb := dfg.NewBuilder("mul")
	x := bb.Input("x")
	bb.Op(dfg.Mul, "m", x, x)
	dm := bb.Build()
	cm := arch.NewMesh(1, 2, 2)
	cm.RestrictPE(0, dfg.Add)
	cm.RestrictPE(1, dfg.Add)
	if _, err := BuildCompat(dm, cm, []int{0, 1}, 2, CompatOptions{}); err == nil {
		t.Error("accepted op no PE supports")
	}
}

func TestMapHeterogeneous(t *testing.T) {
	// Only PE 1 multiplies; the mapper must route the multiply there.
	b := dfg.NewBuilder("het")
	x := b.Input("x")
	y := b.Op(dfg.Mul, "y", x, x)
	b.Op(dfg.Add, "z", y, x)
	d := b.Build()
	c := arch.NewMesh(1, 2, 4)
	c.RestrictPE(0, dfg.Add, dfg.Input, dfg.Neg)
	m, _, err := Map(context.Background(), d, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.PE[y] != 1 {
		t.Errorf("mul on PE %d, want 1", m.PE[y])
	}
}

func TestMapImpossibleKernel(t *testing.T) {
	// An op no PE supports at all: Map must fail cleanly.
	b := dfg.NewBuilder("impossible")
	x := b.Input("x")
	b.Op(dfg.Mul, "m", x, x)
	d := b.Build()
	c := arch.NewMesh(1, 2, 2)
	c.RestrictPE(0, dfg.Add)
	c.RestrictPE(1, dfg.Add)
	if _, _, err := Map(context.Background(), d, c, Options{MaxII: 4}); err == nil {
		t.Fatal("mapped an impossible kernel")
	}
}

func TestMapInvalidDFGRejected(t *testing.T) {
	bad := &dfg.DFG{Name: "bad", Nodes: []dfg.Node{{ID: 0, Name: "x", Kind: dfg.Add}}}
	if _, _, err := Map(context.Background(), bad, arch.NewMesh(2, 2, 2), Options{}); err == nil {
		t.Fatal("accepted invalid DFG")
	}
}

func TestStatsPerf(t *testing.T) {
	s := &Stats{MII: 3, II: 4}
	if s.Perf() != 0.75 {
		t.Errorf("Perf = %v, want 0.75", s.Perf())
	}
	if (&Stats{MII: 3}).Perf() != 0 {
		t.Error("failed mapping must report Perf 0")
	}
}

// randomKernel builds a random valid DFG with optional recurrences and
// memory operations.
func randomKernel(rng *rand.Rand) *dfg.DFG {
	b := dfg.NewBuilder("rand")
	n := 4 + rng.Intn(14)
	ids := []int{b.Input("i0")}
	kinds := []dfg.OpKind{dfg.Add, dfg.Sub, dfg.Mul, dfg.Xor, dfg.Min}
	for len(ids) < n {
		switch rng.Intn(6) {
		case 0:
			ids = append(ids, b.Input("i"))
		case 1:
			ids = append(ids, b.Op(dfg.Load, "ld", ids[rng.Intn(len(ids))]))
		default:
			k := kinds[rng.Intn(len(kinds))]
			ids = append(ids, b.Op(k, "op", ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
		}
	}
	if rng.Intn(2) == 0 {
		acc := b.Op(dfg.Add, "acc", ids[rng.Intn(len(ids))])
		b.EdgeDist(acc, acc, 1, 1+rng.Intn(2))
	}
	return b.Build()
}

// Property: every mapping REGIMap returns passes the independent validator,
// and II never beats the lower bound.
func TestMapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomKernel(rng)
		arrays := []*arch.CGRA{
			arch.NewMesh(2, 2, 2),
			arch.NewMesh(2, 2, 4),
			arch.NewMesh(4, 4, 4),
		}
		c := arrays[rng.Intn(len(arrays))]
		m, stats, err := Map(context.Background(), d, c, Options{})
		if err != nil {
			return true // failing to map is allowed; returning bad maps is not
		}
		if m.Validate() != nil {
			return false
		}
		return stats.II >= stats.MII
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: REGIMap is deterministic.
func TestMapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := arch.NewMesh(2, 2, 2)
	for i := 0; i < 10; i++ {
		d := randomKernel(rng)
		_, s1, err1 := Map(context.Background(), d, c, Options{})
		_, s2, err2 := Map(context.Background(), d, c, Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("nondeterministic outcome")
		}
		if err1 == nil && s1.II != s2.II {
			t.Fatalf("nondeterministic II: %d vs %d", s1.II, s2.II)
		}
	}
}

// The rescheduling ablation must never *improve* results: disabling learning
// can only keep II equal or make it worse.
func TestDisableRescheduleNeverHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := arch.NewMesh(2, 2, 2)
	for i := 0; i < 15; i++ {
		d := randomKernel(rng)
		_, full, errFull := Map(context.Background(), d, c, Options{})
		_, ablated, errAbl := Map(context.Background(), d, c, Options{DisableReschedule: true})
		if errFull != nil {
			continue
		}
		if errAbl != nil {
			continue // ablated failing entirely is "worse", fine
		}
		if ablated.II < full.II {
			t.Fatalf("kernel %d: ablated II %d beat full II %d", i, ablated.II, full.II)
		}
	}
}

// TestFigure3Example reproduces the paper's Figure 3: a 6-op DFG on a 1x2
// CGRA whose MII is 3 (6 ops / 2 PEs) and which REGIMap maps at that bound.
func TestFigure3Example(t *testing.T) {
	b := dfg.NewBuilder("fig3")
	a := b.Input("a")
	bb := b.Op(dfg.Neg, "b", a)
	c := b.Op(dfg.Neg, "c", a)
	d := b.Op(dfg.Add, "d", bb, c)
	e := b.Op(dfg.Neg, "e", c)
	f := b.Op(dfg.Add, "f", d, e)
	_ = f
	kernel := b.Build()
	cgra := arch.NewMesh(1, 2, 2)
	m, stats, err := Map(context.Background(), kernel, cgra, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MII != 3 {
		t.Fatalf("MII = %d, want 3 (6 ops on 2 PEs)", stats.MII)
	}
	if stats.II > 4 {
		t.Errorf("II = %d; the paper maps this example at its MII of 3", stats.II)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
