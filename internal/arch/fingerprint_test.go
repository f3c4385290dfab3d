package arch

import (
	"testing"

	"regimap/internal/dfg"
)

func TestArchFingerprintDeterministic(t *testing.T) {
	a := NewMesh(4, 4, 4)
	b := NewMesh(4, 4, 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical arrays fingerprint differently")
	}
	if a.Clone().Fingerprint() != a.Fingerprint() {
		t.Fatal("clone fingerprints differently")
	}
}

func TestArchFingerprintSeparatesConfig(t *testing.T) {
	base := NewMesh(4, 4, 4)
	seen := map[string][32]byte{"base": base.Fingerprint()}
	add := func(label string, c *CGRA) {
		fp := c.Fingerprint()
		for prev, pfp := range seen {
			if pfp == fp {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		seen[label] = fp
	}
	add("rows", NewMesh(5, 4, 4))
	add("cols", NewMesh(4, 5, 4))
	add("regs", NewMesh(4, 4, 5))
	add("topology", New(4, 4, 4, Torus))

	het := NewMesh(4, 4, 4)
	het.RestrictPE(3, dfg.Add, dfg.Mul)
	add("capability restriction", het)

	broken := NewMesh(4, 4, 4)
	broken.DisablePE(5)
	add("broken PE", broken)

	cut := NewMesh(4, 4, 4)
	if err := cut.CutLink(0, 1); err != nil {
		t.Fatal(err)
	}
	add("cut link", cut)

	regs := NewMesh(4, 4, 4)
	regs.LimitRegs(7, 1)
	add("limited register file", regs)

	row := NewMesh(4, 4, 4)
	row.DisableRowBus(2)
	add("dead row bus", row)
}

func TestArchFingerprintSurvivesFaultedClone(t *testing.T) {
	c := NewMesh(4, 4, 4)
	c.DisablePE(5)
	if err := c.CutLink(0, 1); err != nil {
		t.Fatal(err)
	}
	c.LimitRegs(7, 2)
	c.DisableRowBus(3)
	if c.Clone().Fingerprint() != c.Fingerprint() {
		t.Fatal("faulted clone fingerprints differently")
	}
}

func TestParseTopologyRoundTrip(t *testing.T) {
	for _, topo := range []Topology{Mesh, MeshPlus, Torus} {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Fatalf("ParseTopology(%q) = %v, %v", topo.String(), got, err)
		}
	}
	if got, err := ParseTopology(""); err != nil || got != Mesh {
		t.Fatalf("empty topology = %v, %v, want mesh", got, err)
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
