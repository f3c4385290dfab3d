package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"regimap/internal/kernels"
	"regimap/internal/maperr"
)

func quickCfg(regs int) Config {
	return Config{Rows: 4, Cols: 4, Regs: regs, Quick: true}
}

func TestFigure2(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if r.IIWithRegisters != 2 {
		t.Errorf("II with registers = %d, want 2 (the paper's Figure 2d)", r.IIWithRegisters)
	}
	if r.IIWithoutRegisters <= r.IIWithRegisters {
		t.Errorf("II without registers = %d, must exceed %d", r.IIWithoutRegisters, r.IIWithRegisters)
	}
	if !r.SimulatedOK {
		t.Error("figure 2 mapping must simulate")
	}
	if !strings.Contains(r.Table(), "Figure 2") {
		t.Error("table header missing")
	}
}

func TestFigure5(t *testing.T) {
	r, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if r.CompatNodes != 8 {
		t.Errorf("compat nodes = %d, want 8 (4 ops x 2 PEs)", r.CompatNodes)
	}
	if r.ProductNodes != 16 {
		t.Errorf("product nodes = %d, want 16", r.ProductNodes)
	}
	if r.CompatNodes >= r.ProductNodes {
		t.Error("scheduling must prune the product graph")
	}
	if !strings.Contains(r.Table(), "compatibility graph") {
		t.Error("table malformed")
	}
}

func TestRunLoopAllMappers(t *testing.T) {
	k, _ := kernels.ByName("sphinx_dot")
	for _, mapper := range []Mapper{REGIMap, DRESC, EMS} {
		row := RunLoop(k, mapper, quickCfg(4))
		if !row.OK {
			t.Errorf("%s failed on sphinx_dot", mapper)
			continue
		}
		if row.II < row.MII || row.Perf <= 0 || row.Perf > 1 {
			t.Errorf("%s: implausible row %+v", mapper, row)
		}
		if row.CompileTime <= 0 {
			t.Errorf("%s: no compile time recorded", mapper)
		}
	}
}

func TestRunLoopUnknownMapperPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k, _ := kernels.ByName("sphinx_dot")
	RunLoop(k, Mapper("bogus"), quickCfg(4))
}

// TestFigure6Shape asserts the paper's headline shape on the full suite:
// REGIMap at least matches DRESC on res-bounded loops (the paper reports a
// 1.89x advantage; our stronger annealing baseline narrows that — see
// EXPERIMENTS.md), achieves near-parity on rec-bounded loops, and compiles
// dramatically faster overall.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison, ~1 min")
	}
	// Full annealing budget: the compile-time comparison is only meaningful
	// against the DRESC configuration the other experiments report.
	r := Figure6(Config{Rows: 4, Cols: 4, Regs: 4})
	if r.RatioRes < 0.95 {
		t.Errorf("res-bounded perf ratio REGIMap/DRESC = %.2f, want >= ~1", r.RatioRes)
	}
	if r.RatioRec < 0.9 || r.RatioRec > 1.15 {
		t.Errorf("rec-bounded perf ratio = %.2f, want near parity", r.RatioRec)
	}
	var regTime, drescTime time.Duration
	regOK, drescOK := 0, 0
	for _, row := range r.Rows {
		switch row.Mapper {
		case REGIMap:
			regTime += row.CompileTime
			if row.OK {
				regOK++
			}
		case DRESC:
			drescTime += row.CompileTime
			if row.OK {
				drescOK++
			}
		}
	}
	if regOK < 22 {
		t.Errorf("REGIMap mapped only %d/24 kernels", regOK)
	}
	if drescTime < 3*regTime {
		t.Errorf("DRESC compile time %v not clearly above REGIMap %v", drescTime, regTime)
	}
	table := r.Table()
	if !strings.Contains(table, "geomean") || !strings.Contains(table, "fir8") {
		t.Error("Figure 6 table malformed")
	}
}

// TestRescheduleAblationShape asserts the Section 6.3 result: disabling the
// learning moves hurts res-bounded loops far more often than rec-bounded
// ones.
func TestRescheduleAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite ablation")
	}
	r := RescheduleAblation(quickCfg(4))
	if r.TotalRes == 0 || r.TotalRec == 0 {
		t.Fatal("ablation saw no loops")
	}
	resPct := percent(r.WorseRes, r.TotalRes)
	recPct := percent(r.WorseRec, r.TotalRec)
	if resPct < 50 {
		t.Errorf("only %.0f%% of res-bounded loops got worse without learning; paper ~90%%", resPct)
	}
	if recPct >= resPct {
		t.Errorf("rec-bounded loops hurt as much as res-bounded (%.0f%% vs %.0f%%)", recPct, resPct)
	}
	if !strings.Contains(r.Table(), "rescheduling") {
		t.Error("ablation table malformed")
	}
}

func TestPowerEfficiencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the res-bounded suite")
	}
	r := PowerEfficiency(quickCfg(4))
	if r.MeanIPC <= 1 {
		t.Errorf("mean IPC = %.2f, want > 1 (pipelined loops)", r.MeanIPC)
	}
	if r.Estimate.EnergyRatio < 10 {
		t.Errorf("energy advantage = %.1fx, want the paper's order of magnitude", r.Estimate.EnergyRatio)
	}
	if !strings.Contains(r.Table(), "GOps/s") {
		t.Error("power table malformed")
	}
}

func TestSweepHelpers(t *testing.T) {
	pt := sweepPoint(quickCfg(4), REGIMap, kernels.RecBounded)
	if pt.Total == 0 || pt.Mapped == 0 {
		t.Fatalf("sweep point empty: %+v", pt)
	}
	if pt.MeanPerf <= 0 || pt.MeanPerf > 1 {
		t.Errorf("mean perf %v out of range", pt.MeanPerf)
	}
}

func TestRunIndexed(t *testing.T) {
	square := func(i int) int { return i * i }
	for _, workers := range []int{1, 3, 8, 100} {
		got := runIndexed(workers, 10, square)
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d (order must be preserved)", workers, i, v, i*i)
			}
		}
	}
	if got := runIndexed(4, 0, square); len(got) != 0 {
		t.Errorf("runIndexed with n=0 returned %v", got)
	}
}

// TestRunIndexedPanic: a panicking fn on a worker goroutine reaches the
// caller as a *maperr.WorkerPanicError instead of killing the process.
func TestRunIndexedPanic(t *testing.T) {
	defer func() {
		var wp *maperr.WorkerPanicError
		err, _ := recover().(error)
		if !errors.As(err, &wp) || wp.Value != "boom 3" {
			t.Fatalf("recovered %v, want a *maperr.WorkerPanicError with value \"boom 3\"", err)
		}
	}()
	runIndexed(2, 10, func(i int) int {
		if i == 3 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return i
	})
	t.Fatal("runIndexed returned despite a panicking fn")
}

// TestWorkersDeterministic pins the Workers contract: the concurrency knob
// changes wall-clock only, never results.
func TestWorkersDeterministic(t *testing.T) {
	serial, parallel := quickCfg(4), quickCfg(4)
	serial.Workers = 1
	parallel.Workers = 8
	a := sweepPoint(serial, REGIMap, kernels.RecBounded)
	b := sweepPoint(parallel, REGIMap, kernels.RecBounded)
	if a.MeanPerf != b.MeanPerf || a.Mapped != b.Mapped || a.Total != b.Total {
		t.Errorf("Workers changed results: serial %+v vs parallel %+v", a, b)
	}
}

// TestTimeoutBoundsRunLoop: an already-expired deadline must turn into a
// failed row, not a hang or a panic.
func TestTimeoutBoundsRunLoop(t *testing.T) {
	cfg := quickCfg(4)
	cfg.Timeout = time.Nanosecond
	k, _ := kernels.ByName("sphinx_dot")
	for _, mapper := range []Mapper{REGIMap, DRESC, EMS} {
		if row := RunLoop(k, mapper, cfg); row.OK {
			t.Errorf("%s mapped despite an expired deadline", mapper)
		}
	}
}

// TestCliqueWorkersConfigMatchesSingle: racing RunLoop's placement passes
// must reproduce the inline result.
func TestCliqueWorkersConfigMatchesSingle(t *testing.T) {
	k, _ := kernels.ByName("sphinx_dot")
	one := RunLoop(k, REGIMap, quickCfg(4))
	cfg := quickCfg(4)
	cfg.CliqueWorkers = 4
	four := RunLoop(k, REGIMap, cfg)
	if one.II != four.II || one.MII != four.MII || one.OK != four.OK || one.IPC != four.IPC {
		t.Errorf("clique-workers=4 row %+v diverges from inline row %+v", four, one)
	}
}

func TestStatHelpers(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Error("mean(nil) != 0")
	}
	if got := mean([]float64{1, 3}); got != 2 {
		t.Error("mean broken")
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Error("geomean broken")
	}
	if got := geomean([]float64{1, 0}); got != 0 {
		t.Error("geomean must reject non-positives")
	}
	if percent(1, 0) != 0 {
		t.Error("percent(x, 0) must be 0")
	}
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{2 * time.Second, "2.00s"},
		{3 * time.Millisecond, "3.0ms"},
		{5 * time.Microsecond, "5µs"},
	} {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Regs: 4}.CGRA()
	if c.Rows != 4 || c.Cols != 4 {
		t.Error("Config must default to the paper's 4x4 array")
	}
	if Paper4x4(8).Regs != 8 {
		t.Error("Paper4x4 broken")
	}
}

func TestRegisterBenefitShape(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the suite twice")
	}
	r := RegisterBenefit(quickCfg(4))
	if r.TotalMapped < 22 {
		t.Fatalf("mapped only %d loops with registers", r.TotalMapped)
	}
	// The paper's thesis: registers strictly help. Every loop that maps both
	// ways must be at least as fast with registers, and the suite-wide
	// geomean must show a real gain.
	for _, row := range r.Rows {
		if row.IIWith > 0 && row.IIWithout > 0 && row.IIWithout < row.IIWith {
			t.Errorf("%s: II %d without registers beats %d with", row.Kernel, row.IIWithout, row.IIWith)
		}
	}
	if r.MeanSpeedup < 1.05 && r.FailWithout == 0 {
		t.Errorf("registers bought only %.2fx and no loop needed them", r.MeanSpeedup)
	}
	if !strings.Contains(r.Table(), "geomean speedup") {
		t.Error("table malformed")
	}
}

func TestWriteCSV(t *testing.T) {
	k, _ := kernels.ByName("sphinx_dot")
	rows := []LoopRow{RunLoop(k, REGIMap, quickCfg(4))}
	var buf strings.Builder
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kernel,group,ops,mapper,mii,ii,perf,ipc,compile_us,ok") {
		t.Errorf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, "sphinx_dot,rec-bounded") {
		t.Errorf("CSV row missing: %q", out)
	}
}

func TestWriteSweepCSV(t *testing.T) {
	pt := sweepPoint(quickCfg(4), REGIMap, kernels.RecBounded)
	var buf strings.Builder
	if err := WriteSweepCSV(&buf, []SweepPoint{pt}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4,4,4,rec-bounded,REGIMap") {
		t.Errorf("sweep CSV malformed: %q", buf.String())
	}
}

func TestOptGapShape(t *testing.T) {
	cfg := quickCfg(4)
	cfg.Workers = 4
	cfg.Timeout = 3 * time.Second
	r := OptGap(cfg)
	ks := kernels.All()
	if len(r.Rows) != len(ks) {
		t.Fatalf("optgap rows = %d, want %d", len(r.Rows), len(ks))
	}
	proven := 0
	for i, row := range r.Rows {
		if row.Kernel != ks[i].Name {
			t.Fatalf("row %d is %s, want %s (kernel order lost)", i, row.Kernel, ks[i].Name)
		}
		if row.MII < 1 {
			t.Errorf("%s: MII=%d", row.Kernel, row.MII)
		}
		if row.LowerBound < row.MII {
			t.Errorf("%s: certified bound %d below MII %d", row.Kernel, row.LowerBound, row.MII)
		}
		if row.Proven {
			proven++
			if row.ExactII < row.MII {
				t.Errorf("%s: optimal II=%d beats MII=%d", row.Kernel, row.ExactII, row.MII)
			}
			if row.HeurII != 0 && row.Gap != row.HeurII-row.ExactII {
				t.Errorf("%s: gap=%d, want %d", row.Kernel, row.Gap, row.HeurII-row.ExactII)
			}
		} else if row.Gap != -1 {
			t.Errorf("%s: unproven row carries gap %d", row.Kernel, row.Gap)
		}
	}
	if proven != r.Audited {
		t.Errorf("Audited=%d but %d rows are proven", r.Audited, proven)
	}
	if r.Audited < 5 {
		t.Errorf("only %d certified optima under the quick budget; expected at least the small kernels", r.Audited)
	}
	if r.HeurOptimal > r.Audited {
		t.Errorf("HeurOptimal=%d exceeds Audited=%d", r.HeurOptimal, r.Audited)
	}
	if !strings.Contains(r.Table(), "Optimality gap") {
		t.Error("table header missing")
	}
}
