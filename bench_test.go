// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 6), plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the pipeline stages.
//
//	go test -bench=. -benchmem                  # everything (several minutes)
//	go test -bench=Figure6 -benchtime=1x        # one figure, one pass
//
// The figure benches report the paper's metrics as custom units:
// perf/MII-over-II (higher is better, 1.0 = provably optimal) and
// compile-µs/loop alongside the usual ns/op.
package regimap_test

import (
	"context"
	"fmt"
	"testing"

	"regimap"
	"regimap/internal/arch"
	"regimap/internal/clique"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/dresc"
	"regimap/internal/ems"
	"regimap/internal/experiments"
	"regimap/internal/kernels"
	"regimap/internal/obs"
	"regimap/internal/sat"
	"regimap/internal/sched"
	"regimap/internal/sim"
)

// --- figure/table benches ---------------------------------------------------

// BenchmarkFigure2 regenerates the worked example (registers cut II 4 -> 2 on
// a 1x2 array).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if r.IIWithRegisters != 2 {
			b.Fatalf("II = %d, want 2", r.IIWithRegisters)
		}
	}
}

// BenchmarkFigure5 regenerates the compatibility-graph pruning example.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// suitePass maps every kernel with one mapper on the paper's 4x4/4-regs
// array and reports the paper's metrics.
func suitePass(b *testing.B, mapper experiments.Mapper) {
	cfg := experiments.Paper4x4(4)
	for i := 0; i < b.N; i++ {
		var perfSum float64
		var compileNS int64
		mapped, total := 0, 0
		for _, k := range kernels.All() {
			row := experiments.RunLoop(k, mapper, cfg)
			total++
			compileNS += row.CompileTime.Nanoseconds()
			if row.OK {
				mapped++
				perfSum += row.Perf
			}
		}
		b.ReportMetric(perfSum/float64(mapped), "perf/loop")
		b.ReportMetric(float64(compileNS)/1e3/float64(total), "compile-µs/loop")
		b.ReportMetric(float64(mapped), "mapped")
	}
}

// BenchmarkFigure6_REGIMap..EMS regenerate the per-loop comparison of
// Figure 6; comparing the three benches' perf/loop and compile-µs/loop
// metrics reproduces both the figure and the Section 6.2 compile-time table.
func BenchmarkFigure6_REGIMap(b *testing.B) { suitePass(b, experiments.REGIMap) }
func BenchmarkFigure6_DRESC(b *testing.B)   { suitePass(b, experiments.DRESC) }
func BenchmarkFigure6_EMS(b *testing.B)     { suitePass(b, experiments.EMS) }

// BenchmarkFigure7 sweeps the register-file size (2/4/8) on the 4x4 array
// for both mappers — the paper's Figure 7 series and §6.2 ratios.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(experiments.Config{})
		for _, regs := range r.RegSizes {
			b.ReportMetric(r.Ratio(regs, kernels.ResBounded), "time-ratio-res-r"+itoa(regs))
		}
	}
}

// BenchmarkFigure8 sweeps the array size (2x2/4x4/8x8) at 2 registers per PE
// on the res-bounded group — the paper's Figure 8 series.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(experiments.Config{})
		for _, p := range r.Points {
			if p.Mapper == experiments.REGIMap {
				b.ReportMetric(p.MeanPerf, "perf-"+itoa(p.Config.Rows)+"x"+itoa(p.Config.Cols))
			}
		}
	}
}

// BenchmarkRescheduleAblation regenerates the Section 6.3 learning-from-
// failure measurement.
func BenchmarkRescheduleAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RescheduleAblation(experiments.Paper4x4(4))
		b.ReportMetric(100*float64(r.WorseRes)/float64(max(1, r.TotalRes)), "%res-worse")
		b.ReportMetric(100*float64(r.WorseRec)/float64(max(1, r.TotalRec)), "%rec-worse")
	}
}

// BenchmarkPower regenerates the Section 6.5 power-efficiency estimate.
func BenchmarkPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.PowerEfficiency(experiments.Paper4x4(4))
		b.ReportMetric(r.MeanIPC, "IPC")
		b.ReportMetric(r.Estimate.EnergyRatio, "energy-advantage")
	}
}

// --- ablation benches (design choices called out in DESIGN.md §6) -----------

// ablationPass maps the whole suite with one REGIMap configuration and
// reports mean perf, so ablations are compared by their perf/loop metric.
func ablationPass(b *testing.B, opts core.Options) {
	c := arch.NewMesh(4, 4, 4)
	for i := 0; i < b.N; i++ {
		var perfSum float64
		mapped := 0
		for _, k := range kernels.All() {
			_, stats, err := core.Map(context.Background(), k.Build(), c, opts)
			if err != nil {
				continue
			}
			mapped++
			perfSum += stats.Perf()
		}
		b.ReportMetric(perfSum/float64(max(1, mapped)), "perf/loop")
		b.ReportMetric(float64(mapped), "mapped")
	}
}

// Learning moves on/off (§6.3 and Appendix E).
func BenchmarkAblationFullLearning(b *testing.B) { ablationPass(b, core.Options{}) }
func BenchmarkAblationNoReschedule(b *testing.B) {
	ablationPass(b, core.Options{DisableReschedule: true, DisableRouteInsertion: true, DisableThinning: true})
}
func BenchmarkAblationNoThinning(b *testing.B) {
	ablationPass(b, core.Options{DisableThinning: true})
}
func BenchmarkAblationNoRouteInsertion(b *testing.B) {
	ablationPass(b, core.Options{DisableRouteInsertion: true})
}

// The paper's conservative inter-iteration rule (Appendix A.2) vs this
// reproduction's physically-safe relaxation.
func BenchmarkAblationStrictInterIteration(b *testing.B) {
	ablationPass(b, core.Options{Compat: core.CompatOptions{StrictInterIteration: true}})
}

// Clique-search variants (Appendix D: swap repair and intersection
// re-seeding). Only the generic clique.Find pass reads these switches: it
// runs after the three grouped passes, only when none of them places every
// operation and the compat graph has at most 384 nodes, and the grouped
// passes' in-group swap always runs. So each ablation changes only the
// attempts whose placement Find decides.
func BenchmarkAblationCliqueNoSwap(b *testing.B) {
	ablationPass(b, core.Options{Clique: clique.Options{DisableSwap: true}})
}
func BenchmarkAblationCliqueNoIntersect(b *testing.B) {
	ablationPass(b, core.Options{Clique: clique.Options{DisableIntersect: true}})
}

// BenchmarkAblationPruning measures the paper's scheduling-prunes-the-
// product-graph claim: compatibility-graph nodes per (ops x PEs x II) raw
// product nodes across the suite.
func BenchmarkAblationPruning(b *testing.B) {
	c := arch.NewMesh(4, 4, 4)
	for i := 0; i < b.N; i++ {
		var compatNodes, productNodes int
		for _, k := range kernels.All() {
			d := k.Build()
			sc := sched.New(d, c.NumPEs(), c.Rows)
			ii := sc.MII()
			res, err := sc.ScheduleMinII(ii, ii+8, sched.Options{})
			if err != nil {
				continue
			}
			cg, err := core.BuildCompat(d, c, res.Time, res.II, core.CompatOptions{})
			if err != nil {
				continue
			}
			compatNodes += cg.Nodes()
			productNodes += d.N() * c.NumPEs() * res.II
		}
		b.ReportMetric(float64(compatNodes)/float64(productNodes), "compat/product")
	}
}

// --- micro-benchmarks of the pipeline stages --------------------------------

func benchKernel() *dfg.DFG {
	k, _ := kernels.ByName("sobel")
	return k.Build()
}

// BenchmarkScheduler measures one iterative-modulo-scheduling pass.
func BenchmarkScheduler(b *testing.B) {
	d := benchKernel()
	sc := sched.New(d, 16, 4)
	ii := sc.MII()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Schedule(ii, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSchedule is the bench kernel scheduled at MII+1 on c.
func benchSchedule(b *testing.B, c *arch.CGRA) (*dfg.DFG, *sched.Result) {
	d := benchKernel()
	pes, memSlots := c.MIIResources()
	sc := sched.New(d, pes, memSlots)
	res, err := sc.Schedule(sc.MII()+1, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return d, res
}

// benchTorus is torus-8x8, the zoo fabric that carries most of the suite's
// REGIMap time: 64 candidate PEs per operation.
func benchTorus(b *testing.B) *arch.CGRA {
	c, err := arch.Lookup("torus-8x8")
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkBuildCompat measures compatibility-graph construction.
func BenchmarkBuildCompat(b *testing.B) { buildCompatPass(b, arch.NewMesh(4, 4, 4)) }

// BenchmarkBuildCompatTorus measures the same construction on torus-8x8.
func BenchmarkBuildCompatTorus(b *testing.B) { buildCompatPass(b, benchTorus(b)) }

func buildCompatPass(b *testing.B, c *arch.CGRA) {
	d, res := benchSchedule(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCompat(d, c, res.Time, res.II, core.CompatOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompat is the clique benches' realistic compatibility graph: the
// bench kernel scheduled at MII+1 on c.
func benchCompat(b *testing.B, c *arch.CGRA) (*dfg.DFG, *core.Compat) {
	d, res := benchSchedule(b, c)
	cg, err := core.BuildCompat(d, c, res.Time, res.II, core.CompatOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return d, cg
}

// BenchmarkCliqueFind measures the weight-constrained clique search on a
// realistic compatibility graph.
func BenchmarkCliqueFind(b *testing.B) {
	d, cg := benchCompat(b, arch.NewMesh(4, 4, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clique.Find(cg.G, d.N(), clique.Options{}, nil)
	}
}

// BenchmarkCliqueFindGrouped measures the group-aware constructive search
// behind REGIMap's first placement passes, here in its default
// most-constrained-first order, on the same compatibility graph with the
// builder's group index: one group per operation's candidate bindings, and
// the operation pairs no rule binds marked free.
func BenchmarkCliqueFindGrouped(b *testing.B) { findGroupedPass(b, arch.NewMesh(4, 4, 4)) }

// BenchmarkCliqueFindGroupedTorus measures the same search on torus-8x8's
// compatibility graph.
func BenchmarkCliqueFindGroupedTorus(b *testing.B) { findGroupedPass(b, benchTorus(b)) }

func findGroupedPass(b *testing.B, c *arch.CGRA) {
	_, cg := benchCompat(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clique.FindGrouped(cg.G, cg.Groups(), nil, clique.Options{}, nil)
	}
}

// BenchmarkMapREGIMap measures an end-to-end REGIMap run on one kernel.
func BenchmarkMapREGIMap(b *testing.B) { mapREGIMapPass(b, arch.NewMesh(4, 4, 4)) }

// BenchmarkMapREGIMapTorus measures the same run on torus-8x8, where the
// placement search and the compat builds carry most of the suite's REGIMap
// time.
func BenchmarkMapREGIMapTorus(b *testing.B) { mapREGIMapPass(b, benchTorus(b)) }

func mapREGIMapPass(b *testing.B, c *arch.CGRA) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Map(context.Background(), benchKernel(), c, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapREGIMapParallel times the II ladder, REGIMap's one parallel
// path inside a Map call, bounded at w workers (core.Options.Workers).
// conv3x3 on torus-8x8 climbs from MII 2 to II 5, so the IIs above the two
// that map alone race; workers=1 is the sequential twin.
func BenchmarkMapREGIMapParallel(b *testing.B) {
	c := benchTorus(b)
	k, _ := kernels.ByName("conv3x3")
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := core.Options{Workers: w}
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Map(context.Background(), k.Build(), c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsNilSink measures the disabled-observability fast path: the
// exact span/point sequence one pipeline attempt emits, against the nil
// tracer a run with no -trace flag sees. The mappers instrument
// unconditionally, so this path sits inside every hot loop — the contract is
// 0 allocs/op (pinned here and by obs.TestNilTracerZeroAlloc) and
// single-digit nanoseconds, and the CI bench-compare job fails if either
// regresses.
func BenchmarkObsNilSink(b *testing.B) {
	tr := obs.From(context.Background()).Named("bench", "kernel")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Point1("mii", "mii", 3)
		sp := tr.Start("pass.schedule")
		sp.Field("length", 21).Field("width", 16).FieldBool("ok", true)
		sp.End()
		tr.Point("map.done", "ii", 6, "mii", 3, "attempts", int64(i))
	}
}

// BenchmarkMapDRESC measures an end-to-end DRESC run on the same kernel.
func BenchmarkMapDRESC(b *testing.B) {
	c := arch.NewMesh(4, 4, 4)
	for i := 0; i < b.N; i++ {
		if _, _, err := dresc.Map(context.Background(), benchKernel(), c, dresc.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapDRESCParallel measures DRESC with restart racing: 4
// seed-derived annealing chains per II reduced deterministically
// (lowest-index success wins), across worker counts. The placement is
// identical at every worker count — the sweep shows how much wall-clock the
// same search costs as parallelism varies, the configuration the multi-core
// latency target is measured on.
func BenchmarkMapDRESCParallel(b *testing.B) {
	c := arch.NewMesh(4, 4, 4)
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := dresc.Options{Seed: int64(i), Restarts: 4, Workers: w}
				if _, _, err := dresc.Map(context.Background(), benchKernel(), c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapEMS measures an end-to-end EMS run on the same kernel.
func BenchmarkMapEMS(b *testing.B) {
	c := arch.NewMesh(4, 4, 4)
	for i := 0; i < b.N; i++ {
		if _, _, err := ems.Map(context.Background(), benchKernel(), c, ems.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapEMSTorus measures the same EMS run on torus-8x8, the zoo's
// deep-route case: 64 candidate PEs per slot and the longest route spans,
// where per-placement route-tree reuse matters most.
func BenchmarkMapEMSTorus(b *testing.B) {
	c, err := arch.Lookup("torus-8x8")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ems.Map(context.Background(), benchKernel(), c, ems.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures the cycle-accurate functional simulator.
func BenchmarkSimulate(b *testing.B) {
	m, _, err := regimap.Map(benchKernel(), regimap.NewMesh(4, 4, 4), regimap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Check(m, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRRG measures modulo-routing-resource-graph construction (the
// DRESC substrate).
func BenchmarkMRRG(b *testing.B) {
	c := arch.NewMesh(8, 8, 4)
	for i := 0; i < b.N; i++ {
		arch.BuildMRRG(c, 8)
	}
}

// BenchmarkBuildAdjacency measures fabric construction — topology adjacency
// bitsets included — at the largest supported grid. Every described
// architecture pays this once per Compile/Lookup, so regressions here tax
// the whole zoo.
func BenchmarkBuildAdjacency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch.New(64, 64, 4, arch.Torus)
	}
}

// BenchmarkArchFingerprint measures the arch/v2 fingerprint (whole-word
// adjacency hashing) at the largest supported grid. The fingerprint keys
// regimapd's memo cache, so it runs on every request.
func BenchmarkArchFingerprint(b *testing.B) {
	c := arch.New(64, 64, 4, arch.Torus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fingerprint()
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkEmitAndExecute measures the backend: lowering a mapping to
// instruction words and executing them for 8 iterations.
func BenchmarkEmitAndExecute(b *testing.B) {
	m, _, err := regimap.Map(benchKernel(), regimap.NewMesh(4, 4, 8), regimap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := regimap.Emit(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := regimap.ExecuteProgram(prog, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the loop front end on a realistic body.
func BenchmarkCompile(b *testing.B) {
	const src = "y = 5*x[i] + 3*x[i-1] - 2*y@1 - y@2\nout[i] = min(max(y, 0-128), 127)"
	for i := 0; i < b.N; i++ {
		if _, err := regimap.Compile("biquad", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSATSolve measures the CDCL core on a pigeonhole instance — 8
// pigeons into 7 holes, UNSAT — the classic resolution-hard family, so the
// time is spent where real encodings spend it: conflict analysis, clause
// learning, and backtracking, not unit propagation of an easy formula.
func BenchmarkSATSolve(b *testing.B) {
	const pigeons, holes = 8, 7
	for i := 0; i < b.N; i++ {
		s := sat.New(sat.Options{})
		vars := make([][]int, pigeons)
		for p := range vars {
			vars[p] = make([]int, holes)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p < pigeons; p++ {
			lits := make([]sat.Lit, holes)
			for h := 0; h < holes; h++ {
				lits[h] = sat.Pos(vars[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p := 0; p < pigeons; p++ {
				for q := p + 1; q < pigeons; q++ {
					s.AddClause(sat.Neg(vars[p][h]), sat.Neg(vars[q][h]))
				}
			}
		}
		st, err := s.Solve(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if st != sat.Unsat {
			b.Fatalf("pigeonhole(%d,%d) solved as %v", pigeons, holes, st)
		}
	}
}

// BenchmarkMapExact measures the exact backend end to end on a suite kernel
// it proves optimal: encode, solve, decode, validate, simulate, per II from
// MII up.
func BenchmarkMapExact(b *testing.B) {
	d, ok := kernels.ByName("iir_biquad")
	if !ok {
		b.Fatal("iir_biquad missing")
	}
	c := arch.NewMesh(4, 4, 4)
	for i := 0; i < b.N; i++ {
		k := d.Build()
		m, st, err := regimap.MapExactContext(context.Background(), k, c, regimap.ExactOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if m == nil || st.Cert.OptimalII == 0 {
			b.Fatalf("iir_biquad not proven optimal: %+v", st.Cert)
		}
	}
}

// BenchmarkMapExactBudget measures the exact backend where most of its time
// goes: rungs that exhaust the conflict budget. At the exact benchmark
// workload's budget of 1000 conflicts per solve, gobmk_lib on paper-4x4 ends
// II 2 and 3 unknown and maps at II 4, so an op is three IIs of encoding and
// about 2,600 conflicts rather than a quick optimality proof.
func BenchmarkMapExactBudget(b *testing.B) {
	d, ok := kernels.ByName("gobmk_lib")
	if !ok {
		b.Fatal("gobmk_lib missing")
	}
	c, err := arch.Resolve("paper-4x4")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		k := d.Build()
		m, st, err := regimap.MapExactContext(context.Background(), k, c, regimap.ExactOptions{MaxConflicts: 1000})
		if err != nil {
			b.Fatal(err)
		}
		if m == nil || st.Cert.BestII != 4 || st.Cert.OptimalII != 0 {
			b.Fatalf("gobmk_lib: want unproven II 4, got %+v", st.Cert)
		}
	}
}
