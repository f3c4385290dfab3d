package dfg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// chain4 is the paper's Figure 2 DFG: a->b->c->d plus a->d.
func chain4() *DFG {
	b := NewBuilder("fig2")
	a := b.Input("a")
	bb := b.Op(Neg, "b", a)
	c := b.Op(Neg, "c", bb)
	d := b.Op(Add, "d", c, a)
	_ = d
	return b.Build()
}

func TestBuilderAndValidate(t *testing.T) {
	d := chain4()
	if d.N() != 4 {
		t.Fatalf("N = %d, want 4", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(d.OutEdges(0)); got != 2 {
		t.Errorf("a has %d out edges, want 2", got)
	}
	if got := len(d.InEdges(3)); got != 2 {
		t.Errorf("d has %d in edges, want 2", got)
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	// Arity mismatch.
	bad := &DFG{Name: "bad", Nodes: []Node{{ID: 0, Name: "x", Kind: Add}}}
	bad.rebuildAdj()
	if err := bad.Validate(); err == nil {
		t.Error("accepted add with no operands")
	}
	// Port fed twice.
	bad = &DFG{
		Name: "bad2",
		Nodes: []Node{
			{ID: 0, Name: "a", Kind: Input},
			{ID: 1, Name: "n", Kind: Neg},
		},
		Edges: []Edge{{From: 0, To: 1, Port: 0}, {From: 0, To: 1, Port: 0}},
	}
	bad.rebuildAdj()
	if err := bad.Validate(); err == nil {
		t.Error("accepted doubly-fed port")
	}
	// Distance-0 cycle.
	bad = &DFG{
		Name: "bad3",
		Nodes: []Node{
			{ID: 0, Name: "a", Kind: Neg},
			{ID: 1, Name: "b", Kind: Neg},
		},
		Edges: []Edge{{From: 0, To: 1, Port: 0}, {From: 1, To: 0, Port: 0}},
	}
	bad.rebuildAdj()
	if err := bad.Validate(); err == nil {
		t.Error("accepted distance-0 cycle")
	}
	// Negative distance.
	bad = &DFG{
		Name: "bad4",
		Nodes: []Node{
			{ID: 0, Name: "a", Kind: Input},
			{ID: 1, Name: "b", Kind: Neg},
		},
		Edges: []Edge{{From: 0, To: 1, Port: 0, Dist: -1}},
	}
	bad.rebuildAdj()
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative distance")
	}
	// Store used as producer.
	bad = &DFG{
		Name: "bad5",
		Nodes: []Node{
			{ID: 0, Name: "a", Kind: Input},
			{ID: 1, Name: "s", Kind: Store},
			{ID: 2, Name: "n", Kind: Neg},
		},
		Edges: []Edge{
			{From: 0, To: 1, Port: 0},
			{From: 0, To: 1, Port: 1},
			{From: 1, To: 2, Port: 0},
		},
	}
	bad.rebuildAdj()
	if err := bad.Validate(); err == nil {
		t.Error("accepted store with an out edge")
	}
}

func TestResMII(t *testing.T) {
	d := chain4()
	cases := []struct {
		pes, rows, want int
	}{
		{2, 1, 2},  // 4 ops on 2 PEs
		{4, 1, 1},  // enough PEs
		{16, 4, 1}, // plenty
		{1, 1, 4},  // serial
	}
	for _, c := range cases {
		if got := d.ResMII(c.pes, c.rows); got != c.want {
			t.Errorf("ResMII(%d,%d) = %d, want %d", c.pes, c.rows, got, c.want)
		}
	}
}

func TestResMIIMemoryBus(t *testing.T) {
	b := NewBuilder("membound")
	for i := 0; i < 6; i++ {
		addr := b.Input("a")
		b.Op(Load, "ld", addr)
	}
	d := b.Build()
	// 12 ops, 6 loads. On a 4x4 (16 PEs, 4 rows): compute bound 1, bus bound
	// ceil(6/4)=2.
	if got := d.ResMII(16, 4); got != 2 {
		t.Errorf("ResMII = %d, want 2 (memory-bus bound)", got)
	}
}

func TestRecMIIAcyclic(t *testing.T) {
	if got := chain4().RecMII(); got != 1 {
		t.Errorf("RecMII = %d, want 1 for an acyclic DFG", got)
	}
}

func TestRecMIIAccumulator(t *testing.T) {
	// acc = acc + x: one-node cycle of latency 1, distance 1 -> RecMII 1.
	b := NewBuilder("acc")
	x := b.Input("x")
	acc := b.Op(Add, "acc", x)
	b.EdgeDist(acc, acc, 1, 1)
	d := b.Build()
	if got := d.RecMII(); got != 1 {
		t.Errorf("RecMII = %d, want 1", got)
	}
}

func TestRecMIILongCycle(t *testing.T) {
	// Three-op recurrence, distance 1: RecMII = 3.
	b := NewBuilder("rec3")
	x := b.Input("x")
	p := b.Op(Add, "p", x)
	q := b.Op(Neg, "q", p)
	r := b.Op(Neg, "r", q)
	b.EdgeDist(r, p, 1, 1)
	d := b.Build()
	if got := d.RecMII(); got != 3 {
		t.Errorf("RecMII = %d, want 3", got)
	}
	// Same cycle with distance 2 halves the bound: ceil(3/2) = 2.
	b2 := NewBuilder("rec3d2")
	x2 := b2.Input("x")
	p2 := b2.Op(Add, "p", x2)
	q2 := b2.Op(Neg, "q", p2)
	r2 := b2.Op(Neg, "r", q2)
	b2.EdgeDist(r2, p2, 1, 2)
	d2 := b2.Build()
	if got := d2.RecMII(); got != 2 {
		t.Errorf("RecMII = %d, want 2", got)
	}
}

func TestMIIAndBoundedness(t *testing.T) {
	// rec3 on a large array is rec-bounded; chain4 on 1 PE is res-bounded.
	b := NewBuilder("rec3")
	x := b.Input("x")
	p := b.Op(Add, "p", x)
	q := b.Op(Neg, "q", p)
	r := b.Op(Neg, "r", q)
	b.EdgeDist(r, p, 1, 1)
	rec := b.Build()
	if rec.ResBounded(16, 4) {
		t.Error("rec3 on 4x4 should be rec-bounded")
	}
	if got := rec.MII(16, 4); got != 3 {
		t.Errorf("MII = %d, want 3", got)
	}
	ch := chain4()
	if !ch.ResBounded(1, 1) {
		t.Error("chain4 on 1 PE should be res-bounded")
	}
	if got := ch.MII(1, 1); got != 4 {
		t.Errorf("MII = %d, want 4", got)
	}
}

func TestASAPChain(t *testing.T) {
	d := chain4()
	asap, err := d.ASAP(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if asap[i] != want[i] {
			t.Fatalf("ASAP = %v, want %v", asap, want)
		}
	}
}

func TestASAPInfeasible(t *testing.T) {
	b := NewBuilder("rec3")
	x := b.Input("x")
	p := b.Op(Add, "p", x)
	q := b.Op(Neg, "q", p)
	r := b.Op(Neg, "r", q)
	b.EdgeDist(r, p, 1, 1)
	d := b.Build()
	if _, err := d.ASAP(2); err == nil {
		t.Error("ASAP accepted II below RecMII")
	}
}

func TestASAPRespectsRecurrenceSlack(t *testing.T) {
	// At II=4, a distance-1 back edge over 3 ops leaves slack; ASAP must
	// still satisfy every constraint T(j) >= T(i)+1-II*dist.
	b := NewBuilder("rec")
	x := b.Input("x")
	p := b.Op(Add, "p", x)
	q := b.Op(Neg, "q", p)
	r := b.Op(Neg, "r", q)
	b.EdgeDist(r, p, 1, 1)
	d := b.Build()
	asap, err := d.ASAP(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges {
		if asap[e.To] < asap[e.From]+1-4*e.Dist {
			t.Errorf("ASAP violates edge %v: %v", e, asap)
		}
	}
}

func TestHeights(t *testing.T) {
	d := chain4()
	h := d.Heights()
	// a is 3 hops from sink d; d is a sink.
	if h[0] != 3 || h[3] != 0 {
		t.Errorf("Heights = %v, want h[a]=3 h[d]=0", h)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := chain4()
	c := d.Clone()
	c.Nodes[0].Name = "changed"
	c.InsertRoute(0)
	if d.Nodes[0].Name == "changed" || d.N() == c.N() {
		t.Error("Clone is not independent")
	}
}

func TestInsertRoute(t *testing.T) {
	d := chain4().Clone()
	// Edge 1 is a->d? Find the a->d edge.
	var ei int
	for i, e := range d.Edges {
		if e.From == 0 && e.To == 3 {
			ei = i
		}
	}
	before := d.N()
	rt := d.InsertRoute(ei)
	if d.N() != before+1 {
		t.Fatal("InsertRoute did not add a node")
	}
	if d.Nodes[rt].Kind != Route {
		t.Error("inserted node is not a Route")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("DFG invalid after InsertRoute: %v", err)
	}
	// Path a -> rt -> d must exist.
	found := false
	for _, e := range d.Edges {
		if e.From == rt && e.To == 3 {
			found = true
		}
	}
	if !found {
		t.Error("route node not wired to the consumer")
	}
}

func TestDOTAndSummary(t *testing.T) {
	b := NewBuilder("dotted")
	x := b.Input("x")
	a := b.Op(Add, "a", x, x)
	// Violation of single port: use distinct inputs instead.
	_ = a
	d := func() *DFG {
		bb := NewBuilder("dotted")
		u := bb.Input("u")
		s := bb.Op(Add, "s", u)
		bb.EdgeDist(s, s, 1, 1)
		return bb.Build()
	}()
	dot := d.DOT()
	if !strings.Contains(dot, "style=dashed") {
		t.Error("DOT missing dashed recurrence edge")
	}
	if !strings.Contains(d.Summary(), "2 ops") {
		t.Errorf("Summary = %q", d.Summary())
	}
}

func TestBuilderDoubleFedPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted add with both ports on same port index")
		}
	}()
	b := NewBuilder("bad")
	x := b.Input("x")
	a := b.Op(Add, "a", x, x)
	b.EdgeDist(a, a, 0, 1) // port 0 already fed
	b.Build()
}

func TestEvalKinds(t *testing.T) {
	cases := []struct {
		kind OpKind
		imm  int64
		args []int64
		want int64
	}{
		{Const, 42, nil, 42},
		{Add, 0, []int64{2, 3}, 5},
		{Sub, 0, []int64{2, 3}, -1},
		{Mul, 0, []int64{4, 3}, 12},
		{And, 0, []int64{6, 3}, 2},
		{Or, 0, []int64{6, 3}, 7},
		{Xor, 0, []int64{6, 3}, 5},
		{Shl, 0, []int64{1, 4}, 16},
		{Shr, 0, []int64{16, 2}, 4},
		{Min, 0, []int64{2, 3}, 2},
		{Max, 0, []int64{2, 3}, 3},
		{Abs, 0, []int64{-5}, 5},
		{Neg, 0, []int64{5}, -5},
		{Not, 0, []int64{0}, -1},
		{CmpLT, 0, []int64{1, 2}, 1},
		{CmpLT, 0, []int64{2, 1}, 0},
		{CmpEQ, 0, []int64{7, 7}, 1},
		{Select, 0, []int64{1, 10, 20}, 10},
		{Select, 0, []int64{0, 10, 20}, 20},
		{Route, 0, []int64{9}, 9},
	}
	for _, c := range cases {
		if got := Eval(c.kind, c.imm, c.args); got != c.want {
			t.Errorf("Eval(%s, %v) = %d, want %d", c.kind, c.args, got, c.want)
		}
	}
}

func TestEvalPanicsOnExecutorKinds(t *testing.T) {
	for _, k := range []OpKind{Load, Store, Input} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Eval(%s) did not panic", k)
				}
			}()
			Eval(k, 0, []int64{0, 0})
		}()
	}
}

func TestDeterministicStreams(t *testing.T) {
	if InputValue(3, 7) != InputValue(3, 7) {
		t.Error("InputValue not deterministic")
	}
	if InputValue(3, 7) == InputValue(3, 8) && InputValue(2, 7) == InputValue(3, 7) {
		t.Error("InputValue suspiciously constant")
	}
	if LoadValue(100) != LoadValue(100) {
		t.Error("LoadValue not deterministic")
	}
}

func TestKindStrings(t *testing.T) {
	if Add.String() != "add" || Load.String() != "load" {
		t.Error("kind mnemonics wrong")
	}
	if !strings.Contains(OpKind(99).String(), "99") {
		t.Error("out-of-range kind should print its number")
	}
	if !Load.IsMem() || Add.IsMem() {
		t.Error("IsMem wrong")
	}
	if Add.Latency() != 1 {
		t.Error("latency must be 1 cycle")
	}
}

// randomDAGDFG builds a random valid DFG (possibly with recurrences).
func randomDAGDFG(rng *rand.Rand) *DFG {
	b := NewBuilder("rand")
	n := 3 + rng.Intn(15)
	ids := make([]int, 0, n)
	ids = append(ids, b.Input("in0"))
	binKinds := []OpKind{Add, Sub, Mul, Xor, Min, Max}
	for len(ids) < n {
		switch rng.Intn(5) {
		case 0:
			ids = append(ids, b.Input("in"))
		default:
			k := binKinds[rng.Intn(len(binKinds))]
			a := ids[rng.Intn(len(ids))]
			c := ids[rng.Intn(len(ids))]
			ids = append(ids, b.Op(k, "op", a, c))
		}
	}
	// Sprinkle recurrences: from any node to an Add node's... we can't reuse
	// filled ports, so add dedicated accumulate nodes.
	if rng.Intn(2) == 0 {
		src := ids[rng.Intn(len(ids))]
		acc := b.Op(Add, "acc", src)
		b.EdgeDist(acc, acc, 1, 1+rng.Intn(2))
	}
	return b.Build()
}

// Property: RecMII is the minimum feasible II — feasible at RecMII, not below.
func TestRecMIIMinimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAGDFG(rng)
		rec := d.RecMII()
		if !d.feasibleII(rec) {
			return false
		}
		if rec > 1 && d.feasibleII(rec-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: ASAP satisfies every dependence constraint and is pointwise
// minimal among constraint-satisfying schedules with min slot 0.
func TestASAPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAGDFG(rng)
		ii := d.RecMII() + rng.Intn(3)
		asap, err := d.ASAP(ii)
		if err != nil {
			return false
		}
		for _, e := range d.Edges {
			if asap[e.To] < asap[e.From]+1-ii*e.Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
