package dfg

import (
	"testing"
)

func buildFIRish(name string) *DFG {
	b := NewBuilder(name)
	x := b.Input("x")
	h := b.Const("h", 3)
	m := b.Op(Mul, "m", x, h)
	acc := b.Op(Add, "acc", m)
	b.EdgeDist(acc, acc, 1, 1)
	return b.Build()
}

func TestFingerprintDeterministic(t *testing.T) {
	a := buildFIRish("k")
	b := buildFIRish("k")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical builds produced different fingerprints")
	}
}

func TestFingerprintSeparatesStructure(t *testing.T) {
	base := buildFIRish("k")
	distinct := map[string]*DFG{"base": base}

	add := func(label string, d *DFG) {
		fp := d.Fingerprint()
		for prev, pd := range distinct {
			if pd.Fingerprint() == fp {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		distinct[label] = d
	}

	add("renamed graph", buildFIRish("k2"))

	b := NewBuilder("k")
	x := b.Input("x")
	h := b.Const("h", 4) // immediate differs
	m := b.Op(Mul, "m", x, h)
	acc := b.Op(Add, "acc", m)
	b.EdgeDist(acc, acc, 1, 1)
	add("changed immediate", b.Build())

	b = NewBuilder("k")
	x = b.Input("x")
	h = b.Const("h", 3)
	m = b.Op(Add, "m", x, h) // kind differs
	acc = b.Op(Add, "acc", m)
	b.EdgeDist(acc, acc, 1, 1)
	add("changed kind", b.Build())

	b = NewBuilder("k")
	x = b.Input("x")
	h = b.Const("h", 3)
	m = b.Op(Mul, "m", x, h)
	acc = b.Op(Add, "acc", m)
	b.EdgeDist(acc, acc, 1, 2) // recurrence distance differs
	add("changed distance", b.Build())
}

func TestFingerprintTracksMutation(t *testing.T) {
	d := buildFIRish("k")
	before := d.Fingerprint()
	clone := d.Clone()
	if clone.Fingerprint() != before {
		t.Fatal("clone changed the fingerprint")
	}
	clone.InsertRoute(0)
	if clone.Fingerprint() == before {
		t.Fatal("InsertRoute left the fingerprint unchanged")
	}
	if d.Fingerprint() != before {
		t.Fatal("mutating the clone changed the original's fingerprint")
	}
}

func TestFromPartsRoundTrip(t *testing.T) {
	d := buildFIRish("k")
	got, err := FromParts(d.Name, d.Nodes, d.Edges)
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	if got.Fingerprint() != d.Fingerprint() {
		t.Fatal("FromParts changed the fingerprint")
	}
	// Adjacency must be rebuilt: the recurrence self-edge leaves acc.
	if len(got.OutEdges(3)) != len(d.OutEdges(3)) {
		t.Fatalf("adjacency not rebuilt: %d out-edges, want %d", len(got.OutEdges(3)), len(d.OutEdges(3)))
	}
	// IDs may be omitted (zero) on the wire.
	nodes := append([]Node(nil), d.Nodes...)
	for i := range nodes {
		nodes[i].ID = 0
	}
	got2, err := FromParts(d.Name, nodes, d.Edges)
	if err != nil {
		t.Fatalf("FromParts without IDs: %v", err)
	}
	if got2.Fingerprint() != d.Fingerprint() {
		t.Fatal("ID-less FromParts changed the fingerprint")
	}
}

func TestFromPartsRejectsMalformed(t *testing.T) {
	d := buildFIRish("k")
	edges := append([]Edge(nil), d.Edges...)
	edges[0].To = 99
	if _, err := FromParts(d.Name, d.Nodes, edges); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestKindFromString(t *testing.T) {
	for k := OpKind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("blender"); ok {
		t.Fatal("unknown mnemonic accepted")
	}
}
