package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/graph"
	"regimap/internal/kernels"
	"regimap/internal/sched"
)

// refCompat is a compatibility graph built from scratch by the
// per-candidate-pair loop: every pair of bindings of two distinct operations
// is judged on its own, one Connected and bus-group query at a time.
type refCompat struct {
	pairs  []Pair
	adj    [][]uint64 // adjacency rows, 64 node ids per word
	demand []int      // register demand per operation
	regs   []int      // usable register file per PE, within the NumRegs budget
}

// refBuildCompat derives the compatibility graph of a schedule directly
// from the Appendix A.2 rules, with none of CompatBuilder's machinery: no
// dependence-free fast path, no word masks, no incremental rows. It returns
// nil when some operation has no supporting PE.
func refBuildCompat(d *dfg.DFG, c *arch.CGRA, times []int, ii int, opts CompatOptions) *refCompat {
	r := &refCompat{demand: make([]int, d.N())}
	byOp := make([][]int, d.N())
	for v := range d.Nodes {
		for p := 0; p < c.NumPEs(); p++ {
			if c.Supports(p, d.Nodes[v].Kind) && (!d.Nodes[v].Kind.IsMem() || c.MemPEOk(p)) {
				byOp[v] = append(byOp[v], len(r.pairs))
				r.pairs = append(r.pairs, Pair{Op: v, PE: p})
			}
		}
		if len(byOp[v]) == 0 {
			return nil
		}
	}

	// Dependence summaries per ordered operation pair, and register demand.
	N := d.N()
	needAdj, carried := make([]bool, N*N), make([]bool, N*N)
	maxSpan := make([]int, N)
	for _, e := range d.Edges {
		span := times[e.To] - times[e.From] + ii*e.Dist
		if span > 1 {
			maxSpan[e.From] = max(maxSpan[e.From], span)
		}
		if e.From == e.To {
			continue
		}
		k := e.From*N + e.To
		if span == 1 && (e.Dist == 0 || !opts.StrictInterIteration) {
			needAdj[k] = true
		} else {
			carried[k] = true
		}
	}
	if fo := c.Fanout(); fo > 0 {
		// A producer with more span-1 consumers than the fanout bound keeps
		// every one of them on its own PE.
		for from := 0; from < N; from++ {
			var fwd []int
			for to := 0; to < N; to++ {
				if k := from*N + to; needAdj[k] && !carried[k] {
					fwd = append(fwd, k)
				}
			}
			if len(fwd) > fo {
				for _, k := range fwd {
					carried[k] = true
				}
			}
		}
	}
	for v, span := range maxSpan {
		if span > 1 {
			r.demand[v] = ceilDiv(span, ii)
		}
	}

	r.regs = make([]int, c.NumPEs())
	for p := range r.regs {
		r.regs[p] = min(c.NumRegs, c.RegsAt(p))
	}

	memPairwise := !(c.NumBusGroups() == 1 && c.BusGroupCap(0) > 1)
	n := len(r.pairs)
	r.adj = make([][]uint64, n)
	for i := range r.adj {
		r.adj[i] = make([]uint64, (n+63)/64)
	}
	opMask := make([][]uint64, N) // each operation's candidate ids
	for v := range opMask {
		opMask[v] = make([]uint64, (n+63)/64)
	}
	for i, a := range r.pairs {
		opMask[a.Op][i>>6] |= 1 << uint(i&63)
	}
	// The rule is symmetric in its two bindings, and each row is filled on
	// its own, so a graph that agrees with every row is symmetric too.
	for va := 0; va < N; va++ {
		for vb := 0; vb < N; vb++ {
			if va == vb {
				continue
			}
			sameSlot := times[va]%ii == times[vb]%ii
			memClash := sameSlot && memPairwise && d.Nodes[va].Kind.IsMem() && d.Nodes[vb].Kind.IsMem()
			kf, kr := va*N+vb, vb*N+va
			carry := carried[kf] || carried[kr]
			if !sameSlot && !carry && !needAdj[kf] && !needAdj[kr] {
				// No rule binds the two operations: every pair is compatible.
				for _, i := range byOp[va] {
					for k, w := range opMask[vb] {
						r.adj[i][k] |= w
					}
				}
				continue
			}
			for _, i := range byOp[va] {
				pa, row := r.pairs[i].PE, r.adj[i]
				for _, j := range byOp[vb] {
					pb := r.pairs[j].PE
					switch {
					case sameSlot && pa == pb: // one resource of R_II
					case memClash && c.BusGroupOf(pa) == c.BusGroupOf(pb): // a bus group of capacity <= 1
					case carry && pa != pb: // a register-carried value leaving its PE
					case needAdj[kf] && !c.Connected(pa, pb), needAdj[kr] && !c.Connected(pb, pa): // span 1, no link
					default:
						row[j>>6] |= 1 << uint(j&63)
					}
				}
			}
		}
	}
	return r
}

// diffCompat fails the test unless the builder's graph equals the reference
// on every pair, every node's cluster (its PE) and demand (its operation's),
// every PE's register file, and every adjacency row, and every row is
// symmetric (the grouped clique search's transposed forward check relies on
// it).
func diffCompat(t *testing.T, where string, got *Compat, want *refCompat) {
	t.Helper()
	if len(got.Pairs) != len(want.pairs) {
		t.Fatalf("%s: %d pairs, reference %d", where, len(got.Pairs), len(want.pairs))
	}
	for i, pr := range want.pairs {
		if got.Pairs[i] != pr {
			t.Fatalf("%s: pair %d is %+v, reference %+v", where, i, got.Pairs[i], pr)
		}
		if got.G.Cluster(i) != pr.PE || got.G.Demand(i) != want.demand[pr.Op] {
			t.Fatalf("%s: %+v in cluster %d with demand %d, reference %d with %d",
				where, pr, got.G.Cluster(i), got.G.Demand(i), pr.PE, want.demand[pr.Op])
		}
	}
	if got.G.Clusters() != len(want.regs) {
		t.Fatalf("%s: %d clusters, reference %d PEs", where, got.G.Clusters(), len(want.regs))
	}
	for p, regs := range want.regs {
		if got.G.Regs(p) != regs {
			t.Fatalf("%s: PE %d file %d, reference %d", where, p, got.G.Regs(p), regs)
		}
	}
	// Every ordered pair, so agreeing with the symmetric reference also
	// asserts symmetric rows.
	for i, a := range want.pairs {
		for j, b := range want.pairs {
			if got, w := got.G.Adjacent(i, j), want.adj[i][j>>6]>>uint(j&63)&1 != 0; got != w {
				t.Fatalf("%s: adjacency (%+v, %+v) = %v, reference %v", where, a, b, got, w)
			}
		}
	}
}

// diffRelation fails the test unless the builder's constraint relation
// marks exactly the operation pairs that a dependence either way or a shared
// modulo slot binds, keeps every operation constrained with itself, and
// every pair it marks free is complete bipartite in the builder's graph and
// in the reference.
func diffRelation(t *testing.T, where string, got *Compat, want *refCompat, d *dfg.DFG, times []int, ii int) {
	t.Helper()
	N := d.N()
	dep := make([]bool, N*N)
	for _, e := range d.Edges {
		dep[e.From*N+e.To], dep[e.To*N+e.From] = true, true
	}
	gx := got.Groups()
	for va := 0; va < N; va++ {
		if !gx.Constrained(va, va) {
			t.Fatalf("%s: op %d is free with itself", where, va)
		}
		for vb := 0; vb < N; vb++ {
			if vb == va {
				continue
			}
			bound := dep[va*N+vb] || times[va]%ii == times[vb]%ii
			if gx.Constrained(va, vb) != bound {
				t.Fatalf("%s: ops (%d, %d) constrained=%v, rules bind them: %v", where, va, vb, gx.Constrained(va, vb), bound)
			}
			if bound {
				continue
			}
			for _, i := range got.Candidates(va) {
				for _, j := range got.Candidates(vb) {
					if !got.G.Adjacent(i, j) || want.adj[i][j>>6]>>uint(j&63)&1 == 0 {
						t.Fatalf("%s: free ops (%d, %d) have non-adjacent bindings (%+v, %+v)", where, va, vb, got.Pairs[i], got.Pairs[j])
					}
				}
			}
		}
	}
}

// zooFault breaks one PE, cuts one surviving link of c and shrinks the
// register file of another surviving PE.
func zooFault(rng *rand.Rand, c *arch.CGRA) {
	broken := rng.Intn(c.NumPEs())
	c.DisablePE(broken)
	if p := (broken + 1 + rng.Intn(c.NumPEs()-1)) % c.NumPEs(); c.NominalRegsAt(p) > 0 {
		c.LimitRegs(p, rng.Intn(c.NominalRegsAt(p)))
	}
	for tries := 0; tries < 1000; tries++ {
		p, q := rng.Intn(c.NumPEs()), rng.Intn(c.NumPEs())
		if p != q && p != broken && q != broken && c.Connected(p, q) {
			if err := c.CutLink(p, q); err != nil {
				panic(err)
			}
			return
		}
	}
}

// TestCompatBuilderMatchesReferenceZoo diffs CompatBuilder.Build against the
// per-candidate-pair reference on every suite kernel × every zoo fabric,
// healthy and faulted (a broken PE plus a cut link), with and without
// StrictInterIteration, plus a fanout-1 fabric: the first Build of each
// schedule, and an incremental sequence of reschedules through one builder.
// Every Build's constraint relation is checked too (diffRelation).
func TestCompatBuilderMatchesReferenceZoo(t *testing.T) {
	type fabric struct {
		name string
		c    func() *arch.CGRA
	}
	var fabrics []fabric
	for _, name := range arch.ArchNames() {
		lookup := func() *arch.CGRA {
			c, err := arch.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		fabrics = append(fabrics, fabric{name, lookup}, fabric{name + "/faulted", func() *arch.CGRA {
			c := lookup()
			zooFault(rand.New(rand.NewSource(int64(len(name)))), c)
			return c
		}})
	}
	fabrics = append(fabrics, fabric{"fanout-1", func() *arch.CGRA {
		c, err := arch.Resolve("grid 4x4; topo mesh+; regs 4; fanout 1")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}})

	for _, f := range fabrics {
		c := f.c()
		pes, memRows := c.MIIResources()
		for ki, k := range kernels.All() {
			d := k.Build()
			mii := d.MII(pes, memRows)
			res, err := sched.New(d, pes, memRows).ScheduleMinII(mii, mii+6, sched.Options{})
			if err != nil {
				continue
			}
			for _, strict := range []bool{false, true} {
				opts := CompatOptions{StrictInterIteration: strict}
				where := fmt.Sprintf("%s/%s strict=%v", f.name, k.Name, strict)
				b, err := NewCompatBuilder(d, c, res.II, opts)
				if ref := refBuildCompat(d, c, res.Time, res.II, opts); (err == nil) != (ref != nil) {
					t.Fatalf("%s: builder error %v, reference built=%v", where, err, ref != nil)
				}
				if err != nil {
					continue
				}
				// The first Build, then — under one strictness per kernel,
				// alternating, and off the large torus — a few moved
				// operations (changed rows only) and a shake-up of every
				// operation (a full rebuild).
				rounds := 1
				if strict == (ki%2 == 1) && c.NumPEs() <= 16 {
					rounds = 3
				}
				rng := rand.New(rand.NewSource(int64(ki)))
				times := append([]int(nil), res.Time...)
				for round := 0; round < rounds; round++ {
					switch round {
					case 1:
						perturbSchedule(rng, d, times, res.II, 1+rng.Intn(3))
					case 2:
						perturbSchedule(rng, d, times, res.II, d.N())
					}
					got, err := b.Build(times)
					if err != nil {
						t.Fatalf("%s round %d: Build: %v", where, round, err)
					}
					ref := refBuildCompat(d, c, times, res.II, opts)
					diffCompat(t, fmt.Sprintf("%s round %d", where, round), got, ref)
					diffRelation(t, fmt.Sprintf("%s round %d", where, round), got, ref, d, times, res.II)
				}
			}
		}
	}
}

// sameGroups fails the test unless two compatibility graphs index the same
// candidate lists, masks and word spans, and mark the same operation pairs
// free.
func sameGroups(t *testing.T, where string, got, want *Compat, nOps int) {
	t.Helper()
	gg, wg := got.Groups(), want.Groups()
	for va := 0; va < nOps; va++ {
		if !reflect.DeepEqual(got.Candidates(va), want.Candidates(va)) {
			t.Fatalf("%s: op %d candidates %v, fresh builder %v", where, va, got.Candidates(va), want.Candidates(va))
		}
		glo, ghi := gg.Span(va)
		wlo, whi := wg.Span(va)
		if glo != wlo || ghi != whi || !reflect.DeepEqual(gg.Mask(va).Members(), wg.Mask(va).Members()) {
			t.Fatalf("%s: op %d mask or span differs from a fresh builder's", where, va)
		}
		for vb := 0; vb < nOps; vb++ {
			if gg.Constrained(va, vb) != wg.Constrained(va, vb) {
				t.Fatalf("%s: ops (%d, %d) constrained=%v, fresh builder %v", where, va, vb, gg.Constrained(va, vb), wg.Constrained(va, vb))
			}
		}
	}
}

// poisonBuilder scribbles over the storage a Reset reuses: every adjacency
// row full, every node's cluster and demand and every register file wrong,
// every operation pair marked free, and the dependence and scratch flags
// set.
func poisonBuilder(b *CompatBuilder) {
	full := graph.NewBitset(len(b.pairs))
	full.Fill()
	for i := range b.pairs {
		b.g.OrAdjacencyWords(i, 0, full.Words())
		b.g.SetCluster(i, 0)
		b.g.SetDemand(i, 99)
	}
	for p := 0; p < b.g.Clusters(); p++ {
		b.g.SetRegs(p, 99)
	}
	for va := range b.byOp {
		for vb := range b.byOp {
			b.gx.Constrain(va, vb, false)
		}
	}
	for _, flags := range [][]bool{b.depHas, b.depNeedAdj, b.depCarried, b.changed, b.fanSeen} {
		for i := range flags {
			flags[i] = true
		}
	}
}

// TestCompatBuilderResetMatchesFresh drives one builder the way one Map call
// does — reset for the original kernel, a route-inserted work DFG, a
// recomputed one, then back to the original and the route-inserted one at
// higher IIs — with its storage poisoned before every Reset, and checks
// every Build, first and incremental, against a fresh builder's.
func TestCompatBuilderResetMatchesFresh(t *testing.T) {
	fabrics := []string{"paper-4x4", "hetero-mem-col", "band2-4x4", "adres-4x4", "grid 4x4; topo mesh+; regs 4; fanout 1"}
	steps, resets := 0, 0
	for fi, name := range fabrics {
		c, err := arch.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi == 2 {
			zooFault(rand.New(rand.NewSource(3)), c)
		}
		pes, memRows := c.MIIResources()
		for _, kn := range []string{"sobel", "fir8", "iir_biquad", "dotprod_sat"} {
			k, ok := kernels.ByName(kn)
			if !ok {
				t.Fatalf("no kernel %s", kn)
			}
			d := k.Build()
			routed := d.Clone()
			routed.InsertRoute(0)
			recomputed := routed.Clone()
			for v := range recomputed.Nodes {
				if out := recomputed.OutEdges(v); len(out) >= 2 {
					recomputed.Duplicate(v, out[:1])
					break
				}
			}
			mii := d.MII(pes, memRows)
			rng := rand.New(rand.NewSource(int64(fi)))
			b := new(CompatBuilder)
			for step, target := range []struct {
				d  *dfg.DFG
				ii int
			}{{d, mii}, {routed, mii}, {recomputed, mii + 1}, {d, mii + 1}, {routed, mii + 2}} {
				where := fmt.Sprintf("%s/%s step %d", name, kn, step)
				steps++
				res, err := sched.New(target.d, pes, memRows).ScheduleMinII(target.ii, target.ii+6, sched.Options{})
				if err != nil {
					continue
				}
				resets++
				opts := CompatOptions{StrictInterIteration: step%2 == 1}
				if step > 0 {
					poisonBuilder(b)
				}
				if err := b.Reset(target.d, c, res.II, opts); err != nil {
					t.Fatalf("%s: Reset: %v", where, err)
				}
				times := append([]int(nil), res.Time...)
				for round := 0; round < 2; round++ {
					if round == 1 {
						perturbSchedule(rng, target.d, times, res.II, 2)
					}
					got, err := b.Build(times)
					if err != nil {
						t.Fatalf("%s round %d: Build: %v", where, round, err)
					}
					want, err := BuildCompat(target.d, c, times, res.II, opts)
					if err != nil {
						t.Fatalf("%s round %d: fresh BuildCompat: %v", where, round, err)
					}
					sameCompat(t, step, round, got, want)
					sameGroups(t, fmt.Sprintf("%s round %d", where, round), got, want, target.d.N())
				}
			}
		}
	}
	if resets < steps*3/4 {
		t.Fatalf("only %d of %d steps scheduled", resets, steps)
	}
}
