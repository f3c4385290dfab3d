// Command benchmark runs one workload of the repository's benchmark and
// prints its metrics. Each workload is a fixed, seeded list of operations
// that every run executes in full, timed from outside through the public
// entry points (engine.Lookup(name).Map, sim.Check, and server.New + HTTP on
// loopback). Every output is checked; an incorrect output, a missing metric,
// or a run that does not repeat an earlier run's results exits non-zero.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	benchmark --workload suite|exact|daemon --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 360, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured untraced. With --trace 1 they are the per-layer metrics: the
// workload runs once untraced and once with an in-memory span sink, the
// spans are written to <out>/trace/ when the run ends, and a table of every
// per-layer metric goes to standard error. README.md explains each workload
// and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"regimap/internal/mapping"
	"regimap/internal/obs"
)

func main() {
	os.Exit(run())
}

// opResult is one executed operation, as the benchmark saw it.
type opResult struct {
	id     string // stable op identity, independent of the seed and the order
	class  string // latency class ("compile", "hit", "miss", "job", "scrape")
	engine string
	kernel string
	fabric string

	lat    time.Duration // the whole op, as the caller waited for it
	mapDur time.Duration // the engine's own time: the Map call, or a daemon answer's elapsed_us

	mii, ii int  // ii == 0: an honest "no mapping" verdict
	proven  bool // the II is certified optimal
	scored  bool // the op produces a mapping verdict (not a scrape)

	m     *mapping.Mapping // the certified mapping, when one was returned
	err   error            // the op did not complete (abort, transport, 5xx): a failed op
	bad   error            // the op completed with an incorrect output: fails the run
	stats any              // the engine's stats value, for counts
}

// outcome is the op's deterministic result, compared across runs.
func (r *opResult) outcome() string {
	switch {
	case r.err != nil:
		return "failed"
	case !r.scored:
		return "ok"
	}
	return fmt.Sprintf("ii=%d mii=%d proven=%t", r.ii, r.mii, r.proven)
}

// workload is one benchmark workload. setup may be called several times,
// each time after close; the last set-up is the one that runs.
type workload interface {
	// setup builds the inputs from the seed and warms the program up. sink,
	// when non-nil, is the trace sink of a traced pass, for workloads that
	// must hand it to the program at construction (the daemon's server).
	setup(seed int64, sink obs.Sink) error
	// run executes the op list once. ctx carries the tracer when traced.
	run(ctx context.Context, tr *obs.Tracer) []opResult
	// check verifies outputs outside the timed phase.
	check(res []opResult) error
	// counts returns the deterministic counts of an (untraced) run.
	counts(res []opResult) map[string]float64
	// layers returns the per-layer metrics of a traced run (events non-nil)
	// and the counts among them that must repeat exactly.
	layers(res []opResult, events []obs.Event) (metrics, detCounts map[string]float64, err error)
	// tailPct is the fixed tail percentile for this workload's op count.
	tailPct() float64
	close()
}

// setupRepeats is how many times each run sets the workload up; setup_s is
// their median, so one slow set-up does not move it.
var setupRepeats = map[string]int{"suite": 11, "exact": 5, "daemon": 5}

func newWorkload(name, outDir string) (workload, error) {
	switch name {
	case "suite":
		return &suiteWorkload{}, nil
	case "exact":
		return &exactWorkload{}, nil
	case "daemon":
		return &daemonWorkload{outDir: outDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, exact or daemon)", name)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: suite, exact or daemon")
		seed    = flag.Int64("seed", 1, "workload seed: op order, fault maps and the client split are drawn from it")
		seconds = flag.Int("seconds", 0, "nominal run length; the op lists are fixed and sized for it (informational)")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	def, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	w, err := newWorkload(*name, outDir)
	if err != nil {
		return fail(err)
	}
	defer w.close()

	// The untraced pass: end-to-end metrics, or the traced run's baseline
	// for obs.overhead_frac.
	base, err := measure(w, *name, *seed, nil)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs (nominal %ds), setup %.3fs\n",
		*name, len(base.ops), base.wall.Seconds(), *seconds, base.setup)

	out := result{Correct: base.correctErr == nil, Attempted: len(base.ops), Failed: base.failed()}
	rec := base.record(w)
	var metrics map[string]float64
	var names []specMetric
	if *trace == 0 {
		if metrics, err = base.endToEnd(w.tailPct()); err != nil {
			return fail(err)
		}
		names = def.EndToEnd
	} else {
		traced, err := measure(w, *name, *seed, &obs.MemSink{})
		if err != nil {
			return fail(err)
		}
		if traced.correctErr != nil && out.Correct {
			out.Correct, base.correctErr = false, traced.correctErr
		}
		// The traced pass must repeat the untraced one exactly.
		tr := traced.record(w)
		if diffs := diffRecords(rec, tr); len(diffs) > 0 {
			out.Correct, base.correctErr = false, fmt.Errorf("traced pass differs from the untraced pass:\n  %s", strings.Join(diffs, "\n  "))
		}
		events := traced.sink.Events()
		lm, det, err := w.layers(traced.ops, events)
		if err != nil {
			return fail(err)
		}
		for k, v := range det {
			rec.Counts[k] = v
		}
		lm["runtime.alloc_mb"] = float64(traced.allocBytes) / (1 << 20) / float64(len(traced.ops))
		lm["runtime.gc_cycles"] = float64(traced.gcCycles) / float64(len(traced.ops))
		lm["obs.overhead_frac"] = base.opsPerSec()/traced.opsPerSec() - 1
		lm["unmapped"] = tr.Counts["unmapped"]
		metrics = lm
		names = def.PerLayer
		if err := writeTrace(outDir, *name, *seed, events); err != nil {
			return fail(err)
		}
		printTable(*name, names, metrics)
	}
	if base.correctErr != nil {
		fmt.Fprintf(os.Stderr, "INCORRECT: %v\n", base.correctErr)
	}

	// Every run of the same binary on the same workload must repeat the
	// results and counts of the first one recorded in this checkout.
	if diffs, err := checkRecord(outDir, *name, *trace, rec); err != nil {
		return fail(err)
	} else if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "NONDETERMINISTIC: this run differs from the recorded one:\n  %s\n", strings.Join(diffs, "\n  "))
		out.Correct = false
	}

	out.Metrics, err = def.render(names, metrics, *name, *trace == 1)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

// pass is one measured execution of a workload's op list.
type pass struct {
	ops        []opResult
	wall       time.Duration // the timed phase
	setup      float64       // median set-up seconds
	peakRSSMB  float64
	allocBytes uint64
	gcCycles   uint32
	correctErr error
	sink       *obs.MemSink
}

// measure sets the workload up setupRepeats times, then runs its op list
// once, traced into sink when sink is non-nil, and checks the outputs.
func measure(w workload, name string, seed int64, sink *obs.MemSink) (*pass, error) {
	var s obs.Sink
	if sink != nil {
		s = sink
	}
	setups := make([]float64, 0, setupRepeats[name])
	for i := 0; i < setupRepeats[name]; i++ {
		w.close() // tearing down the previous set-up is not set-up time
		t0 := time.Now()
		if err := w.setup(seed, s); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := &pass{setup: median(setups), sink: sink}
	ctx := context.Background()
	var tr *obs.Tracer
	if sink != nil {
		sink.Reset() // the ledger covers the timed phase only
		tr = obs.New(sink)
		ctx = obs.With(ctx, tr)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p.ops = w.run(ctx, tr)
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	if len(p.ops) == 0 {
		return nil, errors.New("workload ran no ops")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p.peakRSSMB = rss
	var bad []string
	for i := range p.ops {
		if p.ops[i].bad != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", p.ops[i].id, p.ops[i].bad))
		}
	}
	if err := w.check(p.ops); err != nil {
		bad = append(bad, err.Error())
	}
	if len(bad) > 0 {
		p.correctErr = errors.New(strings.Join(bad, "\n  "))
	}
	return p, nil
}

func (p *pass) failed() int {
	n := 0
	for i := range p.ops {
		if p.ops[i].err != nil {
			n++
		}
	}
	return n
}

func (p *pass) opsPerSec() float64 { return float64(len(p.ops)) / p.wall.Seconds() }

// record is the pass's deterministic result: every op's outcome, the
// workload's counts, and the scores.
func (p *pass) record(w workload) record {
	rec := record{Results: make(map[string]string, len(p.ops)), Counts: w.counts(p.ops)}
	for i := range p.ops {
		rec.Results[p.ops[i].id] = p.ops[i].outcome()
	}
	s := scoreOps(p.ops)
	rec.Counts["quality"], rec.Counts["proven_frac"], rec.Counts["unmapped"] = s.quality, s.proven, s.unmapped
	return rec
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func (p *pass) endToEnd(tailPct float64) (map[string]float64, error) {
	lat := make([]float64, len(p.ops))
	for i := range p.ops {
		lat[i] = ms(p.ops[i].lat)
	}
	s := scoreOps(p.ops)
	m := map[string]float64{
		"setup_s":     p.setup,
		"peak_rss_mb": p.peakRSSMB,
		"ops_per_s":   p.opsPerSec(),
		"op_ms_p50":   median(lat),
		"quality":     s.quality,
		"proven_frac": s.proven,
	}
	t, err := tail(lat, tailPct)
	if err != nil {
		return nil, fmt.Errorf("op_ms_tail: %w", err)
	}
	m["op_ms_tail"] = t
	return m, nil
}

// scores are the mapping verdicts of a pass, one per distinct problem.
type scores struct {
	quality  float64 // mean MII/II; a failed or unmapped problem scores 0
	proven   float64 // share of problems whose II is certified optimal
	unmapped float64 // honest "no mapping" verdicts
}

// scoreOps scores every distinct problem (op identity) once, so that the
// daemon's thousands of cache hits on a few keys weigh no more than the one
// miss or job of each other key. The ratios are summed in sorted order, so
// the figure does not depend on the order the seed gave the ops, down to
// the last bit.
func scoreOps(ops []opResult) scores {
	var s scores
	seen := map[string]bool{}
	var ratios []float64
	for i := range ops {
		r := &ops[i]
		if !r.scored || seen[r.id] {
			continue
		}
		seen[r.id] = true
		q := 0.0
		if r.err == nil && r.ii > 0 {
			q = float64(r.mii) / float64(r.ii)
		}
		ratios = append(ratios, q)
		if r.err == nil && r.proven {
			s.proven++
		}
		if r.err == nil && r.ii == 0 {
			s.unmapped++
		}
	}
	if len(ratios) == 0 {
		return s
	}
	sort.Float64s(ratios)
	for _, q := range ratios {
		s.quality += q
	}
	n := float64(len(ratios))
	s.quality /= n
	s.proven /= n
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// writeTrace writes the traced pass's spans as JSON lines once the run has
// ended; nothing is written while ops are timed.
func writeTrace(outDir, name string, seed int64, events []obs.Event) error {
	dir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for i := range events {
		sink.Emit(&events[i])
	}
	return sink.Close()
}

// printTable writes every per-layer metric with its unit to standard error.
func printTable(name string, names []specMetric, values map[string]float64) {
	fmt.Fprintf(os.Stderr, "per-layer metrics, workload %s:\n", name)
	sorted := append([]specMetric(nil), names...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
}
