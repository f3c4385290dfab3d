// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 6) on this reproduction's substrate: the
// kernel suite of internal/kernels mapped by REGIMap (internal/core), the
// DRESC baseline (internal/dresc), and the EMS-style baseline
// (internal/ems). Each experiment returns a structured result and renders
// the same rows/series the paper reports; absolute numbers differ from the
// authors' GCC/testbed setup, but the shapes under test — who wins, by
// roughly what factor, and how the trends move with register-file size and
// array size — are asserted by the integration tests and recorded in
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dresc"
	"regimap/internal/ems"
	"regimap/internal/kernels"
	"regimap/internal/obs"
	"regimap/internal/par"
)

// Mapper selects one of the three mappers under comparison.
type Mapper string

// The mappers of the evaluation.
const (
	REGIMap Mapper = "REGIMap"
	DRESC   Mapper = "DRESC"
	EMS     Mapper = "EMS"
)

// Config fixes one experimental setup.
type Config struct {
	Rows, Cols int
	Regs       int
	// Arch, when set, overrides Rows/Cols/Regs with a named architecture
	// from the registry or an inline ADL description (see internal/arch);
	// a Regs override may still be appended by the register sweeps.
	Arch string
	Seed int64 // DRESC annealing seed
	// Quick shrinks the DRESC annealing budget so smoke tests finish fast;
	// benchmarks and the experiments binary use the full budget.
	Quick bool
	// Workers bounds how many kernels the suite drivers (Figure 6, the
	// sweeps, the ablation, the register study) map concurrently (<=1:
	// serial). Results are deterministic regardless of Workers — every row
	// is collected by kernel index, never by completion order — but the
	// per-row CompileTime fields measure wall-clock under contention, so
	// single-kernel timing comparisons should use Workers <= 1.
	Workers int
	// Timeout caps each individual mapper run (0: unbounded), enforced via
	// the mappers' context support; a timed-out run reports OK=false.
	Timeout time.Duration
	// CliqueWorkers bounds the IIs every REGIMap run races at once
	// (core.Options.Workers; 0: the lowest undecided II plus one
	// speculative II on an idle core; 1: one II at a time). Mappings are
	// byte-identical at any value (DESIGN.md section 8g), so it composes
	// freely with Workers.
	CliqueWorkers int
	// DRESCRestarts races this many seed-derived annealing chains per II
	// inside every DRESC run (<=1: the single-chain escalation). The result
	// depends on this value — it is part of the experimental setup — but
	// never on DRESCWorkers (DESIGN.md section 8h).
	DRESCRestarts int
	// DRESCWorkers bounds the goroutines racing those chains (0: GOMAXPROCS).
	// Wall-clock only; results are byte-identical at any value.
	DRESCWorkers int
	// Trace, when non-nil, is attached to the context of every mapper run so
	// the engines' per-pass spans reach its sink (the experiments binary's
	// -trace flag feeds a JSONL sink here). Sinks must be safe for concurrent
	// emit when Workers > 1; obs sinks are.
	Trace *obs.Tracer
}

// runCtx returns the context one mapper run executes under.
func (c Config) runCtx() (context.Context, context.CancelFunc) {
	ctx := obs.With(context.Background(), c.Trace)
	if c.Timeout > 0 {
		return context.WithTimeout(ctx, c.Timeout)
	}
	return ctx, func() {}
}

// workerCount normalizes the Workers knob.
func (c Config) workerCount() int {
	if c.Workers <= 1 {
		return 1
	}
	return c.Workers
}

// runIndexed evaluates fn(0..n-1) with up to workers goroutines and returns
// the results in index order, so parallel suite execution is deterministic.
// It runs on par.First with a try that never succeeds, so every index runs;
// a panicking fn reaches the caller as a *maperr.WorkerPanicError when
// workers > 1, and unchanged when fn runs inline.
func runIndexed[T any](workers, n int, fn func(int) T) []T {
	out := make([]T, n)
	par.First(context.Background(), n, workers, func(_ context.Context, _, i int) bool {
		out[i] = fn(i)
		return false
	})
	return out
}

// Paper4x4 is the evaluation's default array: 4x4 mesh, 4 registers per PE.
func Paper4x4(regs int) Config { return Config{Rows: 4, Cols: 4, Regs: regs} }

// CGRA materializes the configured array. An Arch value wins over the shape
// fields; when it is set and Regs is non-zero, "regs N" is appended to the
// description (later statements win), so the register sweeps compose with
// any zoo member.
func (c Config) CGRA() *arch.CGRA {
	if c.Arch != "" {
		adl := c.Arch
		if src, _, ok := arch.ArchSource(c.Arch); ok {
			adl = src
		}
		if c.Regs > 0 {
			adl = fmt.Sprintf("%s; regs %d", adl, c.Regs)
		}
		d, err := arch.ParseDesc(adl)
		if err != nil {
			panic(err)
		}
		cg, err := d.Compile()
		if err != nil {
			panic(err)
		}
		return cg
	}
	rows, cols := c.Rows, c.Cols
	if rows == 0 {
		rows = 4
	}
	if cols == 0 {
		cols = 4
	}
	return arch.NewMesh(rows, cols, c.Regs)
}

// coreOptions returns the REGIMap options one mapper run uses: the base
// configuration plus the placement-pass worker count.
func (c Config) coreOptions() core.Options {
	return core.Options{Workers: c.CliqueWorkers}
}

func (c Config) drescOptions() dresc.Options {
	o := dresc.Options{Seed: c.Seed, Restarts: c.DRESCRestarts, Workers: c.DRESCWorkers}
	if c.Quick {
		o.MovesPerTemperature = 6 * 16
		o.Cooling = 0.8
	}
	return o
}

// LoopRow is one (kernel, mapper) measurement — a row of Figure 6 and the
// unit all other experiments aggregate.
type LoopRow struct {
	Kernel      string
	Group       kernels.Boundedness
	Ops         int
	Mapper      Mapper
	MII, II     int
	Perf        float64 // MII/II; 0 on failure
	IPC         float64 // ops per cycle achieved; 0 on failure
	CompileTime time.Duration
	OK          bool
}

// RunLoop maps one kernel with one mapper on the configured array.
func RunLoop(k kernels.Kernel, mapper Mapper, cfg Config) LoopRow {
	d := k.Build()
	c := cfg.CGRA()
	row := LoopRow{
		Kernel: k.Name,
		Group:  kernels.Classify(d, c.NumPEs(), c.Rows),
		Ops:    d.N(),
		Mapper: mapper,
	}
	ctx, cancel := cfg.runCtx()
	defer cancel()
	switch mapper {
	case REGIMap:
		m, stats, err := core.Map(ctx, d, c, cfg.coreOptions())
		row.MII, row.CompileTime = stats.MII, stats.Elapsed
		if err == nil {
			row.II, row.Perf, row.OK = stats.II, stats.Perf(), true
			row.IPC = m.IPC()
		}
	case DRESC:
		p, stats, err := dresc.Map(ctx, d, c, cfg.drescOptions())
		row.MII, row.CompileTime = stats.MII, stats.Elapsed
		if err == nil {
			row.II, row.Perf, row.OK = stats.II, stats.Perf(), true
			row.IPC = float64(p.D.N()) / float64(stats.II)
		}
	case EMS:
		m, stats, err := ems.Map(ctx, d, c, ems.Options{})
		row.MII, row.CompileTime = stats.MII, stats.Elapsed
		if err == nil {
			row.II, row.Perf, row.OK = stats.II, stats.Perf(), true
			row.IPC = m.IPC()
		}
	default:
		panic("experiments: unknown mapper " + string(mapper))
	}
	return row
}

// suite returns the kernels of one boundedness group on the configured
// array, or all kernels when group is nil.
func suite(cfg Config, group *kernels.Boundedness) []kernels.Kernel {
	c := cfg.CGRA()
	var out []kernels.Kernel
	for _, k := range kernels.All() {
		if group == nil || kernels.Classify(k.Build(), c.NumPEs(), c.Rows) == *group {
			out = append(out, k)
		}
	}
	return out
}

func groupPtr(b kernels.Boundedness) *kernels.Boundedness { return &b }

// mean returns the arithmetic mean of xs (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// geomean returns the geometric mean of positive xs (0 for empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func formatHeader(b *strings.Builder, title string) {
	b.WriteString(title)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", len(title)))
	b.WriteByte('\n')
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
