package config

import (
	"context"
	"strings"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/kernels"
	"regimap/internal/mapping"
)

// fig2dMapping is the paper's Figure 2(d) mapping (II=2, a's value carried in
// two rotating registers of PE 1).
func fig2dMapping() *mapping.Mapping {
	b := dfg.NewBuilder("fig2")
	a := b.Input("a")
	bb := b.Op(dfg.Neg, "b", a)
	c := b.Op(dfg.Neg, "c", bb)
	b.Op(dfg.Add, "d", c, a)
	m := mapping.New(b.Build(), arch.NewMesh(1, 2, 2), 2)
	m.Time = []int{0, 1, 2, 3}
	m.PE = []int{1, 0, 0, 1}
	return m
}

func TestEmitFigure2d(t *testing.T) {
	m := fig2dMapping()
	prog, err := Emit(m)
	if err != nil {
		t.Fatal(err)
	}
	if prog.II != 2 || len(prog.PEs) != 2 {
		t.Fatalf("program shape wrong: %+v", prog)
	}
	// a parks its value: its instruction must write a register; d must read
	// the rotating file; b reads a neighbour; c reads its own out register.
	aIn := prog.PEs[1].Slots[0]
	if aIn == nil || aIn.Op != dfg.Input || aIn.WriteReg < 0 {
		t.Fatalf("a's instruction wrong: %+v", aIn)
	}
	dIn := prog.PEs[1].Slots[1]
	if dIn == nil || dIn.Op != dfg.Add {
		t.Fatalf("d's instruction wrong: %+v", dIn)
	}
	foundReg := false
	for _, op := range dIn.Operands {
		if op.Kind == SrcRegister {
			foundReg = true
		}
	}
	if !foundReg {
		t.Error("d must read the register file")
	}
	bIn := prog.PEs[0].Slots[1]
	if bIn == nil || bIn.Operands[0].Kind != SrcNeighbor {
		t.Fatalf("b must read a neighbour: %+v", bIn)
	}
	cIn := prog.PEs[0].Slots[0]
	if cIn == nil || cIn.Operands[0].Kind != SrcSelf {
		t.Fatalf("c must read its own out register: %+v", cIn)
	}
	// PE 1 uses the paper's two registers.
	if prog.PEs[1].Used != 2 {
		t.Errorf("PE 1 uses %d register slots, want 2", prog.PEs[1].Used)
	}
	listing := prog.String()
	for _, want := range []string{"II=2", "input", "-> r0", "self"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

func TestExecuteFigure2d(t *testing.T) {
	if err := Check(fig2dMapping(), 10); err != nil {
		t.Fatal(err)
	}
}

func TestEmitRejectsInvalidMapping(t *testing.T) {
	m := fig2dMapping()
	m.PE[3] = 0 // break the carried same-PE rule
	if _, err := Emit(m); err == nil {
		t.Fatal("Emit accepted an invalid mapping")
	}
}

func TestEmitRejectsTinyFile(t *testing.T) {
	// The Figure 2(d) mapping needs a 2-slot window; shrink the file to 1.
	// The mapping itself then fails validation (pressure 2 > 1), which Emit
	// must surface.
	m := fig2dMapping()
	m.C = arch.NewMesh(1, 2, 1)
	if _, err := Emit(m); err == nil {
		t.Fatal("Emit accepted an over-capacity mapping")
	}
}

func TestExecuteBadIters(t *testing.T) {
	prog, err := Emit(fig2dMapping())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(prog, 0); err == nil {
		t.Fatal("Execute accepted zero iterations")
	}
}

func TestBoundaries(t *testing.T) {
	// II=2, phase 0: boundaries at 0,2,4,...
	cases := []struct {
		write, read, ii, phase, want int
	}{
		{1, 2, 2, 0, 1},  // crosses the boundary at 2
		{2, 3, 2, 0, 0},  // within one rotation period
		{1, 5, 2, 0, 2},  // boundaries at 2 and 4
		{1, 2, 2, 1, 0},  // phase 1: boundaries at 1,3 — none in (1,2]
		{0, 3, 2, 1, 2},  // boundaries at 1 and 3
		{3, 11, 4, 2, 2}, // boundaries at 6 and 10
	}
	for _, c := range cases {
		if got := boundaries(c.write, c.read, c.ii, c.phase); got != c.want {
			t.Errorf("boundaries(%d,%d,II=%d,phase=%d) = %d, want %d",
				c.write, c.read, c.ii, c.phase, got, c.want)
		}
	}
}

// TestAccumulatorRotation exercises the rotating-file addressing with a
// recurrence: acc += x at II=2 parks acc's value one iteration.
func TestAccumulatorRotation(t *testing.T) {
	b := dfg.NewBuilder("acc")
	x := b.Input("x")
	acc := b.Op(dfg.Add, "acc", x)
	b.EdgeDist(acc, acc, 1, 1)
	d := b.Build()
	m := mapping.New(d, arch.NewMesh(1, 2, 2), 2)
	m.Time = []int{0, 1}
	m.PE = []int{0, 1}
	if err := Check(m, 12); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteLowersAndExecutes is the backend's integration test: every
// kernel REGIMap maps on a generously-registered array must lower to
// instruction words and execute bit-identically to the reference. A file
// one rotation window short is reported, not mis-executed.
func TestSuiteLowersAndExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("lowers the whole suite")
	}
	c := arch.NewMesh(4, 4, 8)
	lowered := 0
	for _, k := range kernels.All() {
		m, _, err := core.Map(context.Background(), k.Build(), c, core.Options{})
		if err != nil {
			continue
		}
		prog, err := Emit(m)
		if err != nil {
			// Permitted only for the documented reason: rotation windows
			// exceeding the file.
			if !strings.Contains(err.Error(), "rotating-register slots") {
				t.Errorf("%s: %v", k.Name, err)
			}
			continue
		}
		lowered++
		got, err := Execute(prog, 6)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		if got.Cycles == 0 {
			t.Errorf("%s: executor reported no cycles", k.Name)
		}
		if err := Check(m, 6); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
	if lowered < 20 {
		t.Errorf("only %d/24 kernels lowered to configurations", lowered)
	}
}

func TestSrcKindString(t *testing.T) {
	if SrcSelf.String() != "self" || SrcNeighbor.String() != "nbr" || SrcRegister.String() != "reg" || SrcNone.String() != "none" {
		t.Error("source kind names wrong")
	}
	if !strings.Contains(SrcKind(9).String(), "9") {
		t.Error("unknown kind should print its number")
	}
}
