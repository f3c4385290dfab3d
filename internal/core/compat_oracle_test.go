package core

import (
	"errors"
	"math/rand"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/fault"
	"regimap/internal/mapping"
	"regimap/internal/sched"
)

// TestCompatAgainstValidatorOracle is the compatibility graph's ground-truth
// check: for random small kernels and schedules on every zoo fabric, healthy
// and faulted, two bindings are compatible if and only if the independent
// mapping validator accepts them as a two-operation sub-kernel. This pins
// the Appendix A.2 construction to the machine model rather than to our own
// reading of it.
func TestCompatAgainstValidatorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	names := arch.ArchNames()
	for trial := 0; trial < 8*len(names); trial++ {
		name := names[trial%len(names)]
		c, err := arch.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if trial/len(names)%2 == 1 {
			fs := fault.Random(rng, c, 1+rng.Intn(3))
			if c, err = fs.Apply(c); err != nil {
				t.Fatalf("trial %d: applying %s to %s: %v", trial, fs, name, err)
			}
		}
		d := randomKernel(rng)
		pes, memRows := c.MIIResources()
		if pes == 0 {
			continue
		}
		mii := d.MII(pes, memRows)
		res, err := sched.New(d, pes, memRows).ScheduleMinII(mii, mii+6, sched.Options{})
		if err != nil {
			continue
		}
		cg, err := BuildCompat(d, c, res.Time, res.II, CompatOptions{})
		if err != nil {
			continue
		}
		// Every pair of bindings on small graphs; a sample on the torus.
		n := cg.Nodes()
		probes := n * n
		if n > 400 {
			probes = 20000
		}
		for probe := 0; probe < probes; probe++ {
			i, j := probe/n, probe%n
			if n > 400 {
				i, j = rng.Intn(n), rng.Intn(n)
			}
			if cg.Pairs[i].Op == cg.Pairs[j].Op {
				continue
			}
			got := cg.G.Adjacent(i, j)
			want := oracleCompatible(d, c, res, cg.Pairs[i], cg.Pairs[j])
			if got != want {
				t.Fatalf("trial %d on %s: pair (%s@PE%d, %s@PE%d) compat=%v oracle=%v\nschedule=%v II=%d",
					trial, name,
					d.Nodes[cg.Pairs[i].Op].Name, cg.Pairs[i].PE,
					d.Nodes[cg.Pairs[j].Op].Name, cg.Pairs[j].PE,
					got, want, res.Time, res.II)
			}
		}
	}
}

// oracleCompatible reports whether mapping.Validate accepts the two bindings
// as a sub-kernel of just their two operations and the dependences between
// them, at the schedule's slots. Register capacity is deliberately ignored:
// the clique encodes it as per-PE demand, not adjacency. (On fanout-bounded
// fabrics the compatibility graph also applies a kernel-wide link rule a
// two-operation sub-kernel cannot see; the zoo has none.)
func oracleCompatible(d *dfg.DFG, c *arch.CGRA, res *sched.Result, a, b Pair) bool {
	sub := &dfg.DFG{Name: d.Name, Nodes: []dfg.Node{d.Nodes[a.Op], d.Nodes[b.Op]}}
	sub.Nodes[0].ID, sub.Nodes[1].ID = 0, 1
	local := map[int]int{a.Op: 0, b.Op: 1}
	for _, e := range d.Edges {
		from, okF := local[e.From]
		to, okT := local[e.To]
		if okF && okT {
			sub.Edges = append(sub.Edges, dfg.Edge{From: from, To: to, Port: e.Port, Dist: e.Dist})
		}
	}
	sub = sub.Clone() // index the sub-kernel's edges
	m := mapping.New(sub, c, res.II)
	m.Time[0], m.Time[1] = res.Time[a.Op], res.Time[b.Op]
	m.PE[0], m.PE[1] = a.PE, b.PE
	err := m.Validate()
	var v *mapping.Violation
	return err == nil || errors.As(err, &v) && v.Constraint == mapping.ConstraintRegisterCap
}
