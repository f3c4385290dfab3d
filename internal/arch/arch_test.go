package arch

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"regimap/internal/dfg"
)

func TestMeshGeometry(t *testing.T) {
	c := NewMesh(4, 4, 4)
	if c.NumPEs() != 16 {
		t.Fatalf("NumPEs = %d, want 16", c.NumPEs())
	}
	if c.PEAt(1, 2) != 6 || c.RowOf(6) != 1 || c.ColOf(6) != 2 {
		t.Error("PE coordinate mapping broken")
	}
	// Corner has 2 neighbours, edge 3, interior 4.
	if got := len(c.Neighbors(c.PEAt(0, 0))); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := len(c.Neighbors(c.PEAt(0, 1))); got != 3 {
		t.Errorf("edge degree = %d, want 3", got)
	}
	if got := len(c.Neighbors(c.PEAt(1, 1))); got != 4 {
		t.Errorf("interior degree = %d, want 4", got)
	}
}

func TestConnected(t *testing.T) {
	c := NewMesh(2, 2, 2)
	if !c.Connected(0, 0) {
		t.Error("a PE must be connected to itself")
	}
	if !c.Connected(0, 1) || !c.Connected(0, 2) {
		t.Error("orthogonal neighbours must be connected")
	}
	if c.Connected(0, 3) {
		t.Error("diagonal PEs must not be connected on a plain mesh")
	}
}

func TestMeshPlusDiagonals(t *testing.T) {
	c := New(3, 3, 2, MeshPlus)
	if !c.Connected(c.PEAt(0, 0), c.PEAt(1, 1)) {
		t.Error("mesh+ must connect diagonals")
	}
	if got := len(c.Neighbors(c.PEAt(1, 1))); got != 8 {
		t.Errorf("mesh+ interior degree = %d, want 8", got)
	}
}

func TestTorusWraps(t *testing.T) {
	c := New(3, 3, 2, Torus)
	if !c.Connected(c.PEAt(0, 0), c.PEAt(0, 2)) {
		t.Error("torus must wrap columns")
	}
	if !c.Connected(c.PEAt(0, 0), c.PEAt(2, 0)) {
		t.Error("torus must wrap rows")
	}
	if got := len(c.Neighbors(0)); got != 4 {
		t.Errorf("torus degree = %d, want 4", got)
	}
}

func TestTorusDegenerateDimension(t *testing.T) {
	// 1-row torus: wrapping up and down reaches yourself; no self loops and
	// no duplicate neighbours allowed.
	c := New(1, 4, 2, Torus)
	for p := 0; p < 4; p++ {
		seen := map[int]bool{}
		for _, q := range c.Neighbors(p) {
			if q == p {
				t.Fatalf("self loop at PE %d", p)
			}
			if seen[q] {
				t.Fatalf("duplicate neighbour %d of PE %d", q, p)
			}
			seen[q] = true
		}
	}
}

func TestConnectivitySymmetry(t *testing.T) {
	f := func(rows, cols uint8, topo uint8) bool {
		r := int(rows%4) + 1
		cl := int(cols%4) + 1
		c := New(r, cl, 2, Topology(topo%3))
		for p := 0; p < c.NumPEs(); p++ {
			for q := 0; q < c.NumPEs(); q++ {
				if c.Connected(p, q) != c.Connected(q, p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConnectedSymmetricEverywhere pins the symmetry Connected documents,
// which the compat builder's single reach set per PE relies on: on every zoo
// fabric, after ADL link/nolink edits, and after random PE faults and link
// cuts on each of them.
func TestConnectedSymmetricEverywhere(t *testing.T) {
	symmetric := func(what string, c *CGRA) {
		t.Helper()
		for p := 0; p < c.NumPEs(); p++ {
			for q := 0; q < c.NumPEs(); q++ {
				if c.Connected(p, q) != c.Connected(q, p) {
					t.Fatalf("%s: Connected(%d,%d) = %v, Connected(%d,%d) = %v",
						what, p, q, c.Connected(p, q), q, p, c.Connected(q, p))
				}
			}
		}
	}
	type fabric struct {
		what string
		c    *CGRA
	}
	var fabrics []fabric
	for _, name := range ArchNames() {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, fabric{name, c})
	}
	for _, text := range []string{
		"grid 4x4; regs 4; link 0,0-3,3; nolink 0,0-0,1",
		"grid 3x5; topo mesh+; regs 2; link 0,0-2,4; link 1,1-0,4; nolink 1,1-2,2; nolink 0,2-1,2",
		"grid 4x4; topo 1hop; regs 4; nolink 0,0-0,2; link 3,0-0,3",
	} {
		fabrics = append(fabrics, fabric{text, mustCompile(t, text)})
	}
	rng := rand.New(rand.NewSource(5))
	for _, fb := range fabrics {
		symmetric(fb.what, fb.c)
		for trial := 0; trial < 4; trial++ {
			f := fb.c.Clone()
			for k := 0; k < 6; k++ {
				p := rng.Intn(f.NumPEs())
				if rng.Intn(3) == 0 {
					f.DisablePE(p)
					continue
				}
				if nb := f.Neighbors(p); len(nb) > 0 {
					if err := f.CutLink(p, nb[rng.Intn(len(nb))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			symmetric(fb.what+" with faults and cuts", f)
		}
	}
}

func TestHeterogeneousCaps(t *testing.T) {
	c := NewMesh(2, 2, 2)
	c.RestrictPE(0, dfg.Add, dfg.Sub)
	if !c.Supports(0, dfg.Add) || c.Supports(0, dfg.Mul) {
		t.Error("capability restriction not enforced")
	}
	if !c.Supports(0, dfg.Route) {
		t.Error("route must always be supported")
	}
	if !c.Supports(1, dfg.Mul) {
		t.Error("unrestricted PE lost capabilities")
	}
	d := c.Clone()
	if d.Supports(0, dfg.Mul) || !d.Supports(0, dfg.Add) {
		t.Error("Clone dropped capability restrictions")
	}
}

func TestStringer(t *testing.T) {
	c := NewMesh(4, 4, 8)
	if got := c.String(); !strings.Contains(got, "4x4") || !strings.Contains(got, "8 regs") {
		t.Errorf("String = %q", got)
	}
	if Mesh.String() != "mesh" || MeshPlus.String() != "mesh+" || Torus.String() != "torus" {
		t.Error("topology names wrong")
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 4, 2, Mesh) },
		func() { New(4, 4, -1, Mesh) },
		func() { NewMesh(2, 2, 2).PEAt(2, 0) },
		func() { BuildMRRG(NewMesh(2, 2, 2), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMRRGStructure(t *testing.T) {
	c := NewMesh(2, 2, 4)
	m := BuildMRRG(c, 2)
	wantNodes := 3*4*2 + 2*2 // FU/OutReg/RF x 4 PEs x 2 slots + 2 rows x 2 slots
	if m.N() != wantNodes {
		t.Fatalf("N = %d, want %d", m.N(), wantNodes)
	}
	fu := m.FUNode(0, 0)
	or := m.OutRegNode(0, 0)
	rf := m.RFNode(0, 0)
	bus := m.BusNode(1, 1)
	if m.Kind(fu) != FU || m.Kind(or) != OutReg || m.Kind(rf) != RF || m.Kind(bus) != Bus {
		t.Error("node kinds scrambled")
	}
	if m.Cap(fu) != 1 || m.Cap(rf) != 4 || m.Cap(bus) != 1 {
		t.Error("capacities wrong")
	}
	if m.PE(bus) != 1 || m.Slot(bus) != 1 {
		t.Error("bus coordinates wrong")
	}
	// FU writes its out-reg next slot.
	if !contains(m.Out(fu), m.OutRegNode(0, 1)) {
		t.Error("missing FU -> OutReg(next) edge")
	}
	// Out-reg readable by a neighbour's FU in the same slot.
	if !contains(m.Out(or), m.FUNode(1, 0)) {
		t.Error("missing OutReg -> neighbour FU edge")
	}
	// Out-reg readable by own FU.
	if !contains(m.Out(or), m.FUNode(0, 0)) {
		t.Error("missing OutReg -> own FU edge")
	}
	// Out-reg hold and retire edges.
	if !contains(m.Out(or), m.OutRegNode(0, 1)) || !contains(m.Out(or), m.RFNode(0, 1)) {
		t.Error("missing OutReg hold/retire edges")
	}
	// RF hold and read edges.
	if !contains(m.Out(rf), m.RFNode(0, 1)) || !contains(m.Out(rf), m.FUNode(0, 0)) {
		t.Error("missing RF hold/read edges")
	}
	// RF must never feed another PE.
	for _, v := range m.Out(rf) {
		if m.PE(v) != 0 {
			t.Errorf("RF leaks to PE %d via %s", m.PE(v), m.Describe(v))
		}
	}
	if got := m.Describe(fu); got != "fu(0@0)" {
		t.Errorf("Describe = %q", got)
	}
}

func TestMRRGNoRegisters(t *testing.T) {
	c := NewMesh(2, 2, 0)
	m := BuildMRRG(c, 2)
	rf := m.RFNode(0, 0)
	if m.Cap(rf) != 0 {
		t.Error("RF capacity should be 0")
	}
	if len(m.Out(rf)) != 0 {
		t.Error("register-free array must have no RF edges")
	}
	or := m.OutRegNode(0, 0)
	for _, v := range m.Out(or) {
		if m.Kind(v) == RF {
			t.Error("out-reg must not retire into a zero-capacity RF")
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
