package loopir

import (
	"context"
	"strings"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/config"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/sim"
)

func TestCompileDotProduct(t *testing.T) {
	d, err := Compile("dot", `acc = acc + a[i]*b[i]`)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: counter, 2 const bases, 2 addr adds, 2 loads, mul, acc add.
	if d.N() != 9 {
		t.Errorf("N = %d, want 9:\n%s", d.N(), d.DOT())
	}
	if d.RecMII() != 1 {
		t.Errorf("RecMII = %d, want 1 (single-add recurrence)", d.RecMII())
	}
	if d.MemOps() != 2 {
		t.Errorf("mem ops = %d, want 2", d.MemOps())
	}
	// Functional check: acc after k iterations is the prefix sum of products.
	res, err := sim.Reference(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	var acc, accNode int64 = 0, -1
	for v, nd := range d.Nodes {
		if nd.Kind == dfg.Add && len(d.OutEdges(v)) > 0 {
			for _, ei := range d.OutEdges(v) {
				if d.Edges[ei].To == v {
					accNode = int64(v)
				}
			}
		}
	}
	if accNode < 0 {
		t.Fatal("no accumulator found")
	}
	for k := 0; k < 4; k++ {
		// Recompute by hand from the load streams.
		var prod int64 = 1
		for v, nd := range d.Nodes {
			if nd.Kind == dfg.Load {
				prod *= res.Values[v][k]
			}
		}
		acc += prod
		if res.Values[accNode][k] != acc {
			t.Fatalf("acc[%d] = %d, want %d", k, res.Values[accNode][k], acc)
		}
	}
}

func TestCompileFIR3(t *testing.T) {
	d, err := Compile("fir3", `out[i] = 3*x[i] + 2*x[i-1] + x[i-2]`)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemOps() != 4 {
		t.Errorf("mem ops = %d, want 4 (3 loads + 1 store)", d.MemOps())
	}
	if d.RecMII() != 1 {
		t.Errorf("RecMII = %d, want 1 (no recurrence)", d.RecMII())
	}
	// Same-element loads are shared; x[i], x[i-1], x[i-2] are distinct.
	loads := 0
	for _, nd := range d.Nodes {
		if nd.Kind == dfg.Load {
			loads++
		}
	}
	if loads != 3 {
		t.Errorf("loads = %d, want 3", loads)
	}
}

func TestCompileBiquadRecurrence(t *testing.T) {
	src := `
		// direct-form biquad with explicit delays
		y = 5*x[i] + 3*x[i-1] - 2*y@1 - y@2
		out[i] = y
	`
	d, err := Compile("biquad", src)
	if err != nil {
		t.Fatal(err)
	}
	// The y@1 feedback through two subs gives RecMII >= 2.
	if d.RecMII() < 2 {
		t.Errorf("RecMII = %d, want >= 2:\n%s", d.RecMII(), d.DOT())
	}
	if _, err := sim.Reference(d, 5); err != nil {
		t.Fatal(err)
	}
}

func TestCompileSameIterationChaining(t *testing.T) {
	src := `
		s = x[i] + 1
		d = s * s
		out[i] = d
	`
	d, err := Compile("chain", src)
	if err != nil {
		t.Fatal(err)
	}
	// d = (x+1)^2; no recurrence.
	if d.RecMII() != 1 {
		t.Errorf("RecMII = %d, want 1", d.RecMII())
	}
	res, err := sim.Reference(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v, nd := range d.Nodes {
		if nd.Kind == dfg.Mul {
			for k := 0; k < 3; k++ {
				var x int64
				for u, nu := range d.Nodes {
					if nu.Kind == dfg.Load {
						x = res.Values[u][k]
					}
				}
				if want := (x + 1) * (x + 1); res.Values[v][k] != want {
					t.Fatalf("d[%d] = %d, want %d", k, res.Values[v][k], want)
				}
			}
		}
	}
}

func TestCompileCounterAndCalls(t *testing.T) {
	d, err := Compile("calls", `out[i] = select(i < 8, min(i, 5), max(abs(0-i), 2))`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Reference(d, 12)
	if err != nil {
		t.Fatal(err)
	}
	var store int
	for v, nd := range d.Nodes {
		if nd.Kind == dfg.Store {
			store = v
		}
	}
	for k := 0; k < 12; k++ {
		var want int64
		ik := int64(k)
		if ik < 8 {
			want = ik
			if want > 5 {
				want = 5
			}
		} else {
			want = ik
			if want < 2 {
				want = 2
			}
		}
		if got := res.Stores[store][k][1]; got != want {
			t.Fatalf("stored[%d] = %d, want %d", k, got, want)
		}
	}
}

func TestCompileParameters(t *testing.T) {
	d, err := Compile("saxpy", `out[i] = a*x[i] + y[i]`)
	if err != nil {
		t.Fatal(err)
	}
	// a never assigned: a deterministic immediate.
	found := false
	for _, nd := range d.Nodes {
		if nd.Kind == dfg.Const && nd.Name == "p_a" {
			found = true
			if nd.Value != paramValue("a") {
				t.Errorf("parameter value %d, want %d", nd.Value, paramValue("a"))
			}
		}
	}
	if !found {
		t.Error("parameter constant missing")
	}
}

func TestCompileOperatorsAndPrecedence(t *testing.T) {
	d := MustCompile("prec", `out[i] = 1 | 2 ^ 3 & 4 == 5 < 6 << 1 + 2 * 3`)
	res, err := sim.Reference(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var store int
	for v, nd := range d.Nodes {
		if nd.Kind == dfg.Store {
			store = v
		}
	}
	// Go-evaluated reference of the same expression with the same rules:
	// 2*3=6; 1+6=7; 6<<7=768; 5<768=1; 4==1=0; 3&0=0; 2^0=2; 1|2=3.
	if got := res.Stores[store][0][1]; got != 3 {
		t.Fatalf("stored = %d, want 3", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{``, "empty program"},
		{`i = 1`, "induction variable"},
		{`x = `, "unexpected"},
		{`x = y[j]`, "subscripts must be"},
		{`x = foo(1)`, "unknown function"},
		{`x = min(1)`, "takes 2 arguments"},
		{`a[i] = a[i-1] + 1`, "read and written"},
		{`x = a[i-1]; a[i] = x`, "read and written"},
		{`a[i] = 1; a[i] = 2`, "duplicate store"},
		{`x = y@0`, "positive integer"},
		{`x = y@2`, "never assigned"},
		{`x = 1 $`, "unexpected character"},
		{`x = (1`, "expected ')'"},
		{`x 1`, "expected '='"},
		{`x = 1 1`, "expected end of statement"},
	}
	for _, c := range cases {
		_, err := Compile("bad", c.src)
		if err == nil {
			t.Errorf("%q: expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Compile("bad", "x = 1\ny = foo(2)")
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T", err)
	}
	if le.Line != 2 {
		t.Errorf("error line = %d, want 2", le.Line)
	}
	if !strings.Contains(le.Error(), "2:") {
		t.Errorf("formatted error lacks position: %s", le)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile accepted a bad program")
		}
	}()
	MustCompile("bad", "i = 1")
}

// TestCompiledKernelsMapAndExecute is the front end's integration test: a
// small program suite is compiled, mapped by REGIMap, simulated, lowered to
// instruction words and executed — source to machine, end to end.
func TestCompiledKernelsMapAndExecute(t *testing.T) {
	programs := map[string]string{
		"dot":    `acc = acc + a[i]*b[i]`,
		"fir3":   `out[i] = 3*x[i] + 2*x[i-1] + x[i-2]`,
		"biquad": "y = 5*x[i] + 3*x[i-1] - 2*y@1 - y@2\nout[i] = y",
		"sad":    `acc = acc + abs(a[i] - b[i])`,
		"clip":   `out[i] = min(max(x[i], 0-128), 127)`,
		"mix":    "s = x[i] + y[i]\nout[i] = (s*w) >> 8",
	}
	c := arch.NewMesh(4, 4, 4)
	for name, src := range programs {
		d, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, stats, err := core.Map(context.Background(), d, c, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.II < stats.MII {
			t.Fatalf("%s: II %d beats MII %d", name, stats.II, stats.MII)
		}
		if err := sim.Check(m, 6); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := config.Check(m, 6); err != nil {
			// Rotation-window overflow is the one permitted refusal.
			if !strings.Contains(err.Error(), "rotating-register slots") {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
