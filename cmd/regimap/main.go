// Command regimap maps a benchmark kernel onto a CGRA and reports the
// result: achieved II versus the lower bound, the kernel configuration
// table, register pressure, and (optionally) a functional-simulation check.
//
// Usage:
//
//	regimap -list
//	regimap -list-kernels                            # with ops/edges/RecMII columns
//	regimap -list-mappers                            # the engine registry
//	regimap -list-archs                              # the named-architecture zoo
//	regimap -kernel fir8 [-rows 4 -cols 4 -regs 4] [-mapper regimap|dresc|ems|resilient|exact] [-sim 16] [-dot]
//	regimap -kernel dotprod_sat -mapper exact        # prove the II optimal (SAT-backed certificate)
//	regimap -kernel fir8 -arch torus-8x8             # a zoo member by name
//	regimap -kernel fir8 -arch "grid 4x4; topo mesh+; regs 8"   # an inline ADL description
//	regimap -kernel fir8 -arch-file fabric.adl       # the same, from a file
//	regimap -kernel fir8 -clique-workers 2 -timeout 30s   # same answer, less waiting
//	regimap -kernel fft_radix2 -explore 3            # hunt for a lower II
//	regimap -kernel fir8 -trace trace.jsonl          # per-pass timing spans, one JSON object per line
//	regimap -kernel fir8 -faults "pe 1,1; link 0,0-0,1"            # map around defects
//	regimap -kernel fir8 -mapper resilient -faults "pe 1,1~2"      # degradation ladder + retry
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"regimap"
	"regimap/internal/arch"
	"regimap/internal/engine"
	"regimap/internal/obs"
	"regimap/internal/profiling"
	"regimap/internal/version"
)

// stopProfiles flushes any active pprof profiles; exitOn runs it so error
// exits still produce usable profiles.
var stopProfiles = func() {}

func main() {
	var (
		list        = flag.Bool("list", false, "list the benchmark kernels and exit")
		listKernels = flag.Bool("list-kernels", false, "list the benchmark kernels with size and RecMII columns and exit")
		listMappers = flag.Bool("list-mappers", false, "list the registered mapping engines and exit")
		tracePath   = flag.String("trace", "", "write observability events (per-pass spans, counters) as JSON lines to this file")

		kernel        = flag.String("kernel", "", "kernel to map (see -list)")
		archName      = flag.String("arch", "", "target fabric: a named architecture (see -list-archs) or an inline ADL description")
		archFile      = flag.String("arch-file", "", "read the target fabric's ADL description from this file")
		listArchs     = flag.Bool("list-archs", false, "list the named architectures and exit")
		rows          = flag.Int("rows", 4, "CGRA rows")
		cols          = flag.Int("cols", 4, "CGRA columns")
		regs          = flag.Int("regs", 4, "rotating registers per PE")
		mapper        = flag.String("mapper", "regimap", "mapper: regimap, dresc, ems, resilient, or exact (see -list-mappers)")
		faults        = flag.String("faults", "", `hardware fault set, e.g. "pe 1,1; link 0,0-0,1; regs 2,2=1; row 3"`)
		simN          = flag.Int("sim", 8, "functionally simulate this many iterations (0 to skip)")
		dot           = flag.Bool("dot", false, "print the kernel DFG in Graphviz DOT and exit")
		cfg           = flag.Bool("config", false, "lower the mapping to instruction words and print them (regimap mapper only)")
		srcPath       = flag.String("src", "", "compile this loop-body source file instead of a named kernel")
		svgPath       = flag.String("svg", "", "write the mapping as an SVG picture to this file (regimap mapper only)")
		vcdPath       = flag.String("vcd", "", "write a VCD waveform of the execution to this file (regimap mapper only)")
		jsonOut       = flag.Bool("json", false, "emit mapper statistics as JSON (regimap mapper only)")
		seed          = flag.Int64("seed", 1, "base seed: DRESC annealing / exact solver tie-breaking")
		timeout       = flag.Duration("timeout", 0, "abort mapping after this long (0: unbounded)")
		explore       = flag.Int("explore", 0, "also race this many scout searches, scout s with s more grouped-placement rounds, each a whole II escalation (regimap mapper; may lower the II)")
		cliqueWorkers = flag.Int("clique-workers", 0, "IIs the regimap mapper races at once (0: the lowest undecided II plus one speculative II on an idle core; 1: one II at a time; results are byte-identical at any value)")
		drescRestarts = flag.Int("dresc-restarts", 0, "race this many seed-derived annealing chains per II (dresc mapper; <=1: one chain; results depend on this, not on -dresc-workers)")
		drescWorkers  = flag.Int("dresc-workers", 0, "goroutines racing the restart chains (dresc mapper; 0: GOMAXPROCS; results are byte-identical at any value)")
		cpuProf       = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf       = flag.String("memprofile", "", "write a heap profile to this file on exit")
		showVersion   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	exitOn(err)
	stopProfiles = stop
	defer stop()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, k := range regimap.Kernels() {
			d := k.Build()
			fmt.Printf("%-16s %-5s %3d ops  %s\n", k.Name, k.Suite, d.N(), k.Description)
		}
		return
	}
	if *listKernels {
		fmt.Printf("%-16s %-5s %5s %6s %7s  %s\n", "kernel", "suite", "ops", "edges", "recmii", "description")
		for _, k := range regimap.Kernels() {
			d := k.Build()
			fmt.Printf("%-16s %-5s %5d %6d %7d  %s\n", k.Name, k.Suite, d.N(), len(d.Edges), d.RecMII(), k.Description)
		}
		return
	}
	if *listMappers {
		for _, name := range engine.Names() {
			m, _ := engine.Lookup(name)
			fmt.Printf("%-16s %s\n", name, engine.Describe(m))
		}
		return
	}
	if *listArchs {
		fmt.Printf("%-16s %-44s %s\n", "name", "description", "blurb")
		for _, name := range regimap.ArchNames() {
			adl, blurb, _ := regimap.ArchSource(name)
			fmt.Printf("%-16s %-44s %s\n", name, adl, blurb)
		}
		return
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		exitOn(err)
		sink := obs.NewJSONLSink(f) // Close flushes and closes f
		defer func() { exitOn(sink.Close()) }()
		ctx = obs.With(ctx, obs.New(sink))
	}
	var d *regimap.DFG
	var title, description string
	switch {
	case *srcPath != "":
		text, err := os.ReadFile(*srcPath)
		exitOn(err)
		compiled, err := regimap.Compile(*srcPath, string(text))
		exitOn(err)
		d, title, description = compiled, *srcPath, "compiled loop body"
	case *kernel != "":
		k, ok := regimap.KernelByName(*kernel)
		if !ok {
			fmt.Fprintf(os.Stderr, "regimap: unknown kernel %q (try -list)\n", *kernel)
			stopProfiles()
			os.Exit(2)
		}
		d, title, description = k.Build(), k.Name, k.Description
	default:
		fmt.Fprintln(os.Stderr, "regimap: -kernel or -src required (try -list)")
		stopProfiles()
		os.Exit(2)
	}
	if *dot {
		fmt.Print(d.DOT())
		return
	}
	c, err := resolveArch(*archName, *archFile, *rows, *cols, *regs)
	exitOn(err)
	fs := &regimap.FaultSet{}
	if *faults != "" {
		parsed, err := regimap.ParseFaults(*faults)
		exitOn(err)
		exitOn(parsed.Validate(c))
		fs = parsed
	}
	if *mapper != "resilient" && !fs.Empty() {
		// The single mappers are fault-aware: map directly on the faulted
		// view. The resilient mapper owns fault application (and transient
		// retry) itself.
		faulted, err := fs.Apply(c)
		exitOn(err)
		c = faulted
		fmt.Printf("injected faults: %s — %d of %d PEs usable\n", fs, c.UsablePEs(), c.NumPEs())
	}
	fmt.Printf("kernel %s (%s) on %s\n", title, description, c)

	switch *mapper {
	case "regimap":
		m, stats, err := regimap.MapContext(ctx, d, c, regimap.Options{Workers: *cliqueWorkers, Explore: *explore})
		exitOn(err)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			exitOn(enc.Encode(struct {
				Kernel string
				Array  string
				*regimap.Stats
			}{title, c.String(), stats}))
			if *simN > 0 {
				exitOn(regimap.Simulate(m, *simN))
			}
			return
		}
		fmt.Printf("REGIMap: II=%d (MII=%d, perf %.2f) in %v — %d attempts, %d reschedules, %d routing nodes, %d thinnings\n",
			stats.II, stats.MII, stats.Perf(), stats.Elapsed,
			stats.Attempts, stats.Reschedules, stats.RouteInserts, stats.Thinnings)
		fmt.Print(m)
		fmt.Printf("register pressure per PE: %v\n", m.RegisterPressure())
		if *svgPath != "" {
			svg, err := regimap.RenderMapping(m)
			exitOn(err)
			exitOn(os.WriteFile(*svgPath, []byte(svg), 0o644))
			fmt.Printf("mapping picture written to %s\n", *svgPath)
		}
		if *vcdPath != "" {
			f, err := os.Create(*vcdPath)
			exitOn(err)
			iters := *simN
			if iters <= 0 {
				iters = 8
			}
			exitOn(regimap.WriteVCD(f, m, iters))
			exitOn(f.Close())
			fmt.Printf("waveform written to %s\n", *vcdPath)
		}
		if *cfg {
			prog, err := regimap.Emit(m)
			exitOn(err)
			fmt.Print(prog)
			exitOn(regimap.CheckProgram(m, 8))
			fmt.Println("configuration executed bit-identically to the reference")
		}
		if *simN > 0 {
			exitOn(regimap.Simulate(m, *simN))
			fmt.Printf("functional simulation: %d iterations bit-identical to the reference\n", *simN)
		}
	case "dresc":
		p, stats, err := regimap.MapDRESCContext(ctx, d, c, regimap.DRESCOptions{Seed: *seed, Restarts: *drescRestarts, Workers: *drescWorkers})
		exitOn(err)
		fmt.Printf("DRESC: II=%d (MII=%d, perf %.2f) in %v — %d annealing moves (%d accepted)\n",
			stats.II, stats.MII, stats.Perf(), stats.Elapsed, stats.Moves, stats.Accepts)
		fmt.Printf("placement: %d operations, %d routed edges\n", len(p.PE), len(p.Paths))
	case "resilient":
		out, err := regimap.MapResilient(ctx, d, c, regimap.ResilientOptions{
			Faults: fs,
			DRESC:  regimap.DRESCOptions{Seed: *seed, Restarts: *drescRestarts, Workers: *drescWorkers},
		})
		exitOn(err)
		fmt.Printf("resilient: rung %s II=%d (MII=%d) won in round %d, %v total\n",
			out.Rung, out.II, out.MII, out.Attempt, out.Elapsed)
		for _, a := range out.Reports {
			status := "ok"
			if a.Err != nil {
				status = a.Err.Error()
			}
			fmt.Printf("  round %d  %-8s %s\n", a.Round, a.Rung, status)
		}
		if out.Mapping != nil {
			fmt.Print(out.Mapping)
			fmt.Printf("register pressure per PE: %v\n", out.Mapping.RegisterPressure())
			if *simN > 0 {
				exitOn(regimap.Simulate(out.Mapping, *simN))
				fmt.Printf("functional simulation: %d iterations bit-identical to the reference\n", *simN)
			}
		} else {
			fmt.Printf("placement: %d operations, %d routed edges (DRESC rung)\n",
				len(out.Placement.PE), len(out.Placement.Paths))
		}
	case "ems":
		m, stats, err := regimap.MapEMSContext(ctx, d, c, regimap.EMSOptions{})
		exitOn(err)
		fmt.Printf("EMS: II=%d (MII=%d, perf %.2f) in %v — %d placements, %d routing nodes\n",
			stats.II, stats.MII, stats.Perf(), stats.Elapsed, stats.Placements, stats.Routes)
		fmt.Print(m)
		if *simN > 0 {
			exitOn(regimap.Simulate(m, *simN))
			fmt.Printf("functional simulation: %d iterations bit-identical to the reference\n", *simN)
		}
	case "exact":
		m, stats, err := regimap.MapExactContext(ctx, d, c, regimap.ExactOptions{Seed: *seed})
		if stats != nil {
			printCertificate(&stats.Cert)
		}
		exitOn(err)
		mii, ii, proven := stats.Cert.Gap()
		verdict := "best known (optimality not proven)"
		if proven {
			verdict = "proven optimal"
		}
		fmt.Printf("exact: II=%d %s (MII=%d, perf %.2f) in %v — %d conflicts, %d decisions, %d restarts\n",
			ii, verdict, mii, float64(mii)/float64(ii), stats.Elapsed,
			stats.Cert.Conflicts, stats.Cert.Decisions, stats.Cert.Restarts)
		fmt.Print(m)
		fmt.Printf("register pressure per PE: %v\n", m.RegisterPressure())
		if *simN > 0 {
			exitOn(regimap.Simulate(m, *simN))
			fmt.Printf("functional simulation: %d iterations bit-identical to the reference\n", *simN)
		}
	default:
		fmt.Fprint(os.Stderr, unknownMapperMessage(*mapper))
		stopProfiles()
		os.Exit(2)
	}
}

// unknownMapperMessage explains a bad -mapper value by listing the engine
// registry, so the user never has to guess at valid names.
func unknownMapperMessage(name string) string {
	msg := fmt.Sprintf("regimap: unknown mapper %q; registered mappers:\n", name)
	for _, n := range engine.Names() {
		m, _ := engine.Lookup(n)
		msg += fmt.Sprintf("  %-16s %s\n", n, engine.Describe(m))
	}
	return msg
}

// printCertificate reports the exact engine's per-II verdicts and the
// certified lower bound — also on failure, where the certificate is the
// useful part of the answer.
func printCertificate(cert *regimap.Certificate) {
	for _, v := range cert.PerII {
		note := ""
		if v.Note != "" {
			note = " (" + v.Note + ")"
		}
		fmt.Printf("  II=%-3d %-10s %7d vars %8d clauses %8d conflicts  %v%s\n",
			v.II, v.Status, v.Vars, v.Clauses, v.Conflicts, v.Elapsed.Round(time.Millisecond), note)
	}
	class := "holds for any mapper"
	if cert.LowerBoundClass == regimap.ExactLowerBoundChain {
		class = fmt.Sprintf("holds for route-chain mappings (<=%d hops/edge)", cert.RouteHops)
	}
	fmt.Printf("  certified lower bound: II >= %d — %s\n", cert.ProvenLowerBound, class)
}

// resolveArch builds the target array from -arch / -arch-file or from the
// shape flags; the two ways are mutually exclusive. Every path goes through
// the ADL compiler, so a malformed fabric fails with the same positioned
// *DescError the server and the mapping wire decoder report.
func resolveArch(name, file string, rows, cols, regs int) (*regimap.CGRA, error) {
	shapeSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rows" || f.Name == "cols" || f.Name == "regs" {
			shapeSet = true
		}
	})
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("-arch and -arch-file are mutually exclusive")
	case name != "":
		if shapeSet {
			return nil, fmt.Errorf("-arch is mutually exclusive with -rows/-cols/-regs")
		}
		return regimap.ResolveArch(name)
	case file != "":
		if shapeSet {
			return nil, fmt.Errorf("-arch-file is mutually exclusive with -rows/-cols/-regs")
		}
		text, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		desc, err := regimap.ParseArch(string(text))
		if err != nil {
			return nil, err
		}
		return desc.Compile()
	default:
		return arch.Uniform(rows, cols, regs, arch.Mesh)
	}
}

func exitOn(err error) {
	if err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "regimap:", err)
		os.Exit(1)
	}
}
