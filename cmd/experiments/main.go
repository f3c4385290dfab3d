// Command experiments regenerates the paper's evaluation (Section 6): every
// figure and table, printed as text tables. Expect a few minutes with the
// full DRESC annealing budget; -quick trades annealing quality for speed.
//
// Usage:
//
//	experiments                 # everything, one kernel per core
//	experiments -run fig6       # one of: fig2, fig5, fig6, fig7, fig8, ablation, power, registers, phases, optgap
//	experiments -run phases     # per-kernel phase-time breakdown of the pass pipeline
//	experiments -run optgap     # REGIMap audited by the exact SAT backend's certificates
//	experiments -quick          # reduced DRESC budget
//	experiments -jobs 1         # serial (for clean single-run timings)
//	experiments -timeout 30s    # cap each individual mapper run
//	experiments -trace t.jsonl  # per-pass observability spans from every run, as JSON lines
//	experiments -chaos          # fault-injection degradation curve + mutation catch rate
//	experiments -chaos -trials 4 -max-faults 5 -faults "pe 3,3; row 3"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"regimap/internal/arch"
	"regimap/internal/experiments"
	"regimap/internal/fault"
	"regimap/internal/fault/chaos"
	"regimap/internal/obs"
	"regimap/internal/profiling"
	"regimap/internal/version"
)

// stopProfiles flushes any active pprof profiles; exitOn runs it so error
// exits still produce usable profiles.
var stopProfiles = func() {}

func main() {
	var (
		run           = flag.String("run", "all", "experiment to run: all, fig2, fig5, fig6, fig7, fig8, archsweep, ablation, power, registers, phases, optgap")
		archList      = flag.String("archs", "", "archsweep: comma-separated named architectures (default: the whole registry)")
		quick         = flag.Bool("quick", false, "shrink the DRESC annealing budget")
		seed          = flag.Int64("seed", 0, "base seed: DRESC annealing")
		csvPath       = flag.String("csv", "", "also write Figure 6 per-loop rows as CSV to this file")
		jobs          = flag.Int("jobs", runtime.NumCPU(), "map this many kernels concurrently (results are identical at any value)")
		timeout       = flag.Duration("timeout", 0, "abort any single mapper run after this long (0: unbounded)")
		cliqueWorkers = flag.Int("clique-workers", 0, "IIs every REGIMap run races at once (0: the lowest undecided II plus one speculative II on an idle core; 1: one II at a time; results are byte-identical at any value)")
		drescRestarts = flag.Int("dresc-restarts", 0, "race this many seed-derived annealing chains per II inside every DRESC run (<=1: one chain; part of the experimental setup)")
		drescWorkers  = flag.Int("dresc-workers", 0, "goroutines racing the DRESC restart chains (0: GOMAXPROCS; results are byte-identical at any value)")
		runChaos      = flag.Bool("chaos", false, "run the fault-injection chaos harness instead of the paper experiments")
		trials        = flag.Int("trials", 2, "chaos: random fault sets drawn per fault count")
		maxFaults     = flag.Int("max-faults", 3, "chaos: largest injected fault count in the sweep")
		faultSpec     = flag.String("faults", "pe 3,3; row 3", "chaos: fault set for the mutation-sweep fabric")
		cpuProf       = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf       = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath     = flag.String("trace", "", "write observability events (per-pass spans, counters) from every mapper run as JSON lines to this file")
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
	base := experiments.Config{
		Rows: 4, Cols: 4, Regs: 4,
		Seed: *seed, Quick: *quick,
		Workers: *jobs, Timeout: *timeout, CliqueWorkers: *cliqueWorkers,
		DRESCRestarts: *drescRestarts, DRESCWorkers: *drescWorkers,
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		exitOn(err)
		sink := obs.NewJSONLSink(f) // Close flushes and closes f
		defer func() { exitOn(sink.Close()) }()
		base.Trace = obs.New(sink)
	}

	if *runChaos {
		exitOn(chaosHarness(base, *seed, *trials, *maxFaults, *faultSpec))
		return
	}

	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false

	if want("fig2") {
		ran = true
		r, err := experiments.Figure2()
		exitOn(err)
		fmt.Println(r.Table())
	}
	if want("fig5") {
		ran = true
		r, err := experiments.Figure5()
		exitOn(err)
		fmt.Println(r.Table())
	}
	if want("fig6") {
		ran = true
		r := experiments.Figure6(base)
		fmt.Println(r.Table())
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			exitOn(err)
			exitOn(experiments.WriteCSV(f, r.Rows))
			exitOn(f.Close())
			fmt.Printf("per-loop rows written to %s\n\n", *csvPath)
		}
	}
	if want("fig7") {
		ran = true
		fmt.Println(experiments.Figure7(base).Table())
	}
	if want("fig8") {
		ran = true
		fmt.Println(experiments.Figure8(base).Table())
	}
	if want("archsweep") {
		ran = true
		var archs []string
		if *archList != "" {
			archs = strings.Split(*archList, ",")
		}
		fmt.Println(experiments.ArchSweep(base, archs...).Table())
	}
	if want("ablation") {
		ran = true
		fmt.Println(experiments.RescheduleAblation(base).Table())
	}
	if want("power") {
		ran = true
		fmt.Println(experiments.PowerEfficiency(base).Table())
	}
	if want("registers") {
		ran = true
		fmt.Println(experiments.RegisterBenefit(base).Table())
	}
	if want("phases") {
		ran = true
		fmt.Println(experiments.PhaseBreakdown(base).Table())
	}
	if want("optgap") {
		ran = true
		fmt.Println(experiments.OptGap(base).Table())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *run)
		stopProfiles()
		os.Exit(2)
	}
}

// chaosHarness runs the fault-injection evaluation: a degradation curve
// (success rate, winning rung, II inflation versus injected fault count) and
// a mutation sweep proving the validator and simulator reject every injected
// constraint violation. A mutation escaping both checkers is a hard failure.
func chaosHarness(base experiments.Config, seed int64, trials, maxFaults int, faultSpec string) error {
	ctx := context.Background()
	fabric := arch.NewMesh(base.Rows, base.Cols, base.Regs)

	fmt.Printf("chaos: degradation sweep on %s, 0..%d faults, %d trial(s) per count, seed %d\n",
		fabric, maxFaults, trials, seed)
	curve, err := chaos.Sweep(ctx, chaos.SweepOptions{
		Fabric:    fabric,
		MaxFaults: maxFaults,
		Trials:    trials,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(curve.Table())
	for _, p := range curve.Points {
		for _, f := range p.Failures {
			fmt.Printf("  unmapped: %s\n", f)
		}
	}

	fs, err := fault.Parse(faultSpec)
	if err != nil {
		return err
	}
	if err := fs.Validate(fabric); err != nil {
		return err
	}
	fmt.Printf("\nchaos: mutation sweep on %s with faults %q\n", fabric, fs)
	outcomes, err := chaos.MutationSweep(ctx, nil, fabric, fs)
	if err != nil {
		return err
	}
	applied, caught, classes := chaos.CatchRate(outcomes)
	fmt.Printf("mutations applied %d, caught %d (%.0f%%), constraint classes %v\n",
		applied, caught, 100*float64(caught)/float64(max(applied, 1)), classes)
	for _, o := range outcomes {
		if !o.Caught() {
			fmt.Printf("  ESCAPED %s/%s: validate=%v sim=%v blamed=%q want=%q\n",
				o.Kernel, o.Mutant, o.CaughtValidate, o.CaughtSim, o.Got, o.Expected)
		}
	}
	if caught != applied {
		return fmt.Errorf("chaos: %d of %d mutations escaped the checkers", applied-caught, applied)
	}
	return nil
}

func exitOn(err error) {
	if err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
