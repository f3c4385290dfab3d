package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/par"
	"regimap/internal/sat"
)

// ladderCase is one exact run the raced ladder must reproduce.
type ladderCase struct {
	name string
	d    *dfg.DFG
	c    *arch.CGRA
	opts Options
}

func resolveArch(t *testing.T, desc string) *arch.CGRA {
	t.Helper()
	c, err := arch.Resolve(desc)
	if err != nil {
		t.Fatalf("arch %q: %v", desc, err)
	}
	return c
}

// randomLadderCases are small random kernels on tiny fabrics whose ladders
// cover every way a ladder can run and end (the comment on each names its
// sequential verdicts); TestRacedLadderMatchesSequential asserts the
// coverage, so a change to the generator or the encoder cannot silently
// drop a shape.
func randomLadderCases(t *testing.T) []ladderCase {
	rnd := func(seed int64) *dfg.DFG {
		return kernels.Random(seed, kernels.RandomOptions{Ops: 5 + int(seed%4), Recurrence: int(seed % 3)})
	}
	mesh2x2 := resolveArch(t, "grid 2x2; regs 1")
	pair := resolveArch(t, "grid 1x2; regs 1")
	return []ladderCase{
		// unsat, unsat, sat: refuted rungs below an optimal mapping.
		{"refuted-then-sat", rnd(12), mesh2x2, Options{MaxConflicts: 1000}},
		// unsat (windows), unsat, sat without route hops.
		{"windows-refuted", rnd(3), mesh2x2, Options{RouteHops: -1, MaxConflicts: 40}},
		// unsat, unknown, sat: the gap forfeits the optimality proof.
		{"unknown-then-sat", rnd(9), pair, Options{MaxConflicts: 1000}},
		// unknown, unsat, then the window ends with no mapping.
		{"unknown-then-unsat", rnd(2), pair, Options{RouteHops: -1, MaxConflicts: 40, MaxII: 6}},
		// unmappable: no PE of an ALU-only fabric can multiply.
		{"unmappable", rnd(1), resolveArch(t, "grid 2x2; regs 2; cap all alu"), Options{MaxConflicts: 1000}},
		// unsat, unsat, then every wider II exceeds MaxPoints.
		{"too-large", rnd(12), mesh2x2, Options{MaxConflicts: 1000, MaxPoints: 80}},
		// A MinII/MaxII window of unsat, unknown, unknown: no mapping.
		{"window-unknown", rnd(9), mesh2x2, Options{RouteHops: -1, MaxConflicts: 40, MinII: 3, MaxII: 5}},
		// A one-II window above MII, refuted: no mapping.
		{"window-refuted", rnd(12), mesh2x2, Options{MinII: 3, MaxII: 3}},
	}
}

// suiteLadderCases are the exact golden suite's runs: every suite kernel of
// at most 25 ops on three fabrics at 1000 conflicts per solve. -short keeps
// paper-4x4 only.
func suiteLadderCases(t *testing.T) []ladderCase {
	fabrics := []string{"paper-4x4", "band2-4x4", "hetero-mem-col"}
	if testing.Short() {
		fabrics = fabrics[:1]
	}
	var out []ladderCase
	for _, f := range fabrics {
		c := resolveArch(t, f)
		for _, k := range kernels.All() {
			d := k.Build()
			if d.N() > 25 {
				continue
			}
			out = append(out, ladderCase{f + "/" + k.Name, d, c, Options{MaxConflicts: 1000}})
		}
	}
	return out
}

// ladderRun is everything a ladder returns, with wall-clock scrubbed.
type ladderRun struct {
	cert    Certificate
	mapping string // canonical text; "" without a mapping
	err     string
}

func runLadder(ctx context.Context, tc ladderCase, workers int, solve iiSolver) (ladderRun, error) {
	m, st, err := mapLadder(ctx, tc.d, tc.c, tc.opts, workers, solve)
	r := ladderRun{cert: scrubbed(st.Cert)}
	if m != nil {
		r.mapping = m.String()
	}
	if err != nil {
		r.err = err.Error()
	}
	return r, err
}

// scrubbed copies a certificate with every Elapsed zeroed: wall-clock is the
// one field allowed to differ between runs.
func scrubbed(c Certificate) Certificate {
	c.PerII = append([]Verdict(nil), c.PerII...)
	for i := range c.PerII {
		c.PerII[i].Elapsed = 0
	}
	return c
}

// TestRacedLadderMatchesSequential diffs the raced ladder at 2 and 8
// workers against the sequential one (1 worker) on the exact golden suite's
// runs and on random ladders of every shape: the certificate field by field
// (Elapsed aside), the mapping's canonical text and the error.
func TestRacedLadderMatchesSequential(t *testing.T) {
	random := randomLadderCases(t)
	cases := append(suiteLadderCases(t), random...)
	seq := make([]ladderRun, len(cases))
	for i, tc := range cases {
		seq[i], _ = runLadder(context.Background(), tc, 1, solveAtII)
	}
	for _, workers := range []int{2, 8} {
		for i, tc := range cases {
			got, _ := runLadder(context.Background(), tc, workers, solveAtII)
			if !reflect.DeepEqual(got, seq[i]) {
				t.Fatalf("%s at %d workers:\n got %+v\nwant %+v", tc.name, workers, got, seq[i])
			}
		}
	}

	// The random corpus must keep covering every ladder shape.
	shapes := map[string]bool{}
	for i, tc := range random {
		r := seq[len(cases)-len(random)+i]
		seen := map[string]bool{}
		for _, v := range r.cert.PerII {
			switch {
			case v.Status == "sat" && seen["unsat"]:
				shapes["unsat then sat"] = true
			case v.Status == "unsat" && seen["unknown"]:
				shapes["unknown then unsat"] = true
			case v.Status == "unmappable":
				shapes["unmappable"] = true
			case v.Note == "encoding exceeds MaxPoints":
				shapes["too large"] = true
			}
			seen[v.Status] = true
		}
		if (tc.opts.MinII > 0 || tc.opts.MaxII > 0) && r.mapping == "" && len(r.cert.PerII) > 0 && r.err != "" {
			shapes["window without mapping"] = true
		}
	}
	for _, s := range []string{"unsat then sat", "unknown then unsat", "unmappable", "too large", "window without mapping"} {
		if !shapes[s] {
			t.Errorf("random ladders no longer cover %q", s)
		}
	}
}

// TestRacedLadderCancelledAfterFirstII cancels the caller's context as the
// first II's verdict comes in, before any other II starts, at 1, 2 and 8
// workers. The run must abort, and its verdicts must be a prefix of the
// uncancelled run's, save for one trailing verdict of an II the
// cancellation caught at its start, which holds no solver work.
func TestRacedLadderCancelledAfterFirstII(t *testing.T) {
	for _, tc := range randomLadderCases(t) {
		want, _ := runLadder(context.Background(), tc, 1, solveAtII)
		if len(want.cert.PerII) < 2 {
			continue // the first II ends the ladder; nothing is left to cancel
		}
		lo := want.cert.PerII[0].II
		for _, workers := range []int{1, 2, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			firstDone := make(chan struct{})
			solve := func(ctx context.Context, s *sat.Solver, d *dfg.DFG, c *arch.CGRA, ii int, opts Options) (Verdict, *mapping.Mapping, error) {
				if ii != lo {
					<-firstDone
					return solveAtII(ctx, s, d, c, ii, opts)
				}
				v, m, err := solveAtII(ctx, s, d, c, ii, opts)
				cancel()
				close(firstDone)
				return v, m, err
			}
			got, err := runLadder(ctx, tc, workers, solve)
			cancel()
			what := fmt.Sprintf("%s at %d workers", tc.name, workers)
			if !errors.Is(err, maperr.ErrAborted) {
				t.Fatalf("%s: cancelled ladder returned %v, want ErrAborted", what, err)
			}
			per := got.cert.PerII
			if n := len(per); n > 0 && per[n-1].Note == "context cancelled" {
				if v := per[n-1]; v.Status != "unknown" || v.Vars != 0 || v.Clauses != 0 || v.Conflicts != 0 {
					t.Fatalf("%s: the cancelled II did solver work: %+v", what, v)
				}
				per = per[:n-1]
			}
			if len(per) == 0 || len(per) > len(want.cert.PerII) || !reflect.DeepEqual(per, want.cert.PerII[:len(per)]) {
				t.Fatalf("%s: verdicts %+v are no prefix of the uncancelled %+v", what, got.cert.PerII, want.cert.PerII)
			}
		}
	}
}

// TestSolveAtIIDoneContext pins prompt cancellation's first step: under an
// already-done context an II returns an unknown verdict at once, with the
// context's error, and adds nothing to its solver, whether fresh or holding
// a previous II's formula.
func TestSolveAtIIDoneContext(t *testing.T) {
	d := kernel(t, "dotprod_sat")
	c := resolveArch(t, "paper-4x4")
	opts := Options{MaxConflicts: 1000}
	used := sat.New(sat.Options{})
	if _, _, err := solveAtII(context.Background(), used, d, c, 3, opts); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []*sat.Solver{sat.New(sat.Options{}), used} {
		vars, clauses := s.NumVars(), s.NumClauses()
		v, m, err := solveAtII(ctx, s, d, c, 3, opts)
		if v.Status != "unknown" || v.Note != "context cancelled" || m != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("done context: verdict %+v, mapping %v, err %v", v, m != nil, err)
		}
		if v.Vars != 0 || v.Clauses != 0 || v.Conflicts != 0 || s.NumVars() != vars || s.NumClauses() != clauses {
			t.Fatalf("done context changed the solver: verdict %+v, %d vars %d clauses, was %d and %d",
				v, s.NumVars(), s.NumClauses(), vars, clauses)
		}
	}
}

// TestLadderSpeculatesOnIdleCoresOnly pins the speculation gate. With every
// core counted busy by IIs elsewhere in the process, a raced ladder solves
// one II at a time; with a core idle, the II above the undecided one starts
// while that one runs. Either way the result is the sequential ladder's.
func TestLadderSpeculatesOnIdleCoresOnly(t *testing.T) {
	tc := randomLadderCases(t)[0] // unsat, unsat, sat
	want, _ := runLadder(context.Background(), tc, 1, solveAtII)
	lo := want.cert.PerII[0].II

	var running, peak atomic.Int32
	counted := func(ctx context.Context, s *sat.Solver, d *dfg.DFG, c *arch.CGRA, ii int, opts Options) (Verdict, *mapping.Mapping, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return solveAtII(ctx, s, d, c, ii, opts)
	}
	cores := runtime.GOMAXPROCS(0)
	release := holdCores(cores)
	got, _ := runLadder(context.Background(), tc, 2, counted)
	release()
	if p := peak.Load(); p != 1 {
		t.Errorf("every core busy: %d IIs solved at once, want 1", p)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("every core busy:\n got %+v\nwant %+v", got, want)
	}

	if cores < 2 {
		return // no core is ever idle while an II runs
	}
	second := make(chan struct{})
	var once sync.Once
	waiting := func(ctx context.Context, s *sat.Solver, d *dfg.DFG, c *arch.CGRA, ii int, opts Options) (Verdict, *mapping.Mapping, error) {
		if ii != lo {
			once.Do(func() { close(second) })
		} else {
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Errorf("a core was idle, yet no II above %d started while it ran", lo)
			}
		}
		return solveAtII(ctx, s, d, c, ii, opts)
	}
	if got, _ := runLadder(context.Background(), tc, 2, waiting); !reflect.DeepEqual(got, want) {
		t.Fatalf("idle cores:\n got %+v\nwant %+v", got, want)
	}
}

// holdCores counts n cores busy in the process-wide speculation gate, as n
// ladders each running its lowest undecided II would, until release.
func holdCores(n int) (release func()) {
	held := make([]par.Ladder[struct{}], n)
	for i := range held {
		held[i].Enter(context.Background(), 0)
	}
	return func() {
		for i := range held {
			held[i].Leave(0, struct{}{})
		}
	}
}

// TestConcurrentLaddersMatchSequential runs the random ladders as concurrent
// Map calls, which share the speculation gate and the idle solvers: every
// result must still be its sequential ladder's.
func TestConcurrentLaddersMatchSequential(t *testing.T) {
	cases := randomLadderCases(t)
	want := make([]ladderRun, len(cases))
	for i, tc := range cases {
		want[i], _ = runLadder(context.Background(), tc, 1, solveAtII)
	}
	got := make([]ladderRun, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = runLadder(context.Background(), tc, par.MaxInFlight, solveAtII)
		}()
	}
	wg.Wait()
	for i, tc := range cases {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s run concurrently:\n got %+v\nwant %+v", tc.name, got[i], want[i])
		}
	}
}

// TestMapHugeMaxIIAborts: MaxII comes from callers (regimapd takes it from
// the request), so a ladder may take memory only for IIs that ran. A window
// of two billion IIs under a short deadline must abort as a small one does,
// with bounded allocation.
func TestMapHugeMaxIIAborts(t *testing.T) {
	d := kernel(t, "gobmk_lib")
	c := resolveArch(t, "paper-4x4")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st, err := Map(ctx, d, c, Options{MaxII: math.MaxInt32})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, maperr.ErrAborted) {
		t.Fatalf("Map = %v after %d IIs, want ErrAborted", err, len(st.Cert.PerII))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<20 {
		t.Fatalf("Map allocated %d MB before its deadline", alloc>>20)
	}
}

// TestIdleSolversBounded: an ended call's solvers are kept for later calls
// only while fewer than GOMAXPROCS wait and their buffers fit
// maxIdleFootprint, and a later call takes the most recently kept first,
// leaving no reference to it behind: a taken solver that grows past the
// bound must be freed with its call.
func TestIdleSolversBounded(t *testing.T) {
	idle.mu.Lock()
	saved := idle.solvers
	idle.solvers = nil
	idle.mu.Unlock()
	defer func() {
		idle.mu.Lock()
		idle.solvers = saved
		idle.mu.Unlock()
	}()

	small := sat.New(sat.Options{})
	small.NewVar()
	large := sat.New(sat.Options{})
	for large.Footprint() <= maxIdleFootprint {
		large.NewVar()
	}
	keepSolvers([]*sat.Solver{large, nil, small})
	if len(idle.solvers) != 1 || idle.solvers[0] != small {
		t.Fatalf("idle solvers %v, want only the small one", idle.solvers)
	}
	more := make([]*sat.Solver, runtime.GOMAXPROCS(0)+1)
	for i := range more {
		more[i] = sat.New(sat.Options{})
	}
	keepSolvers(more)
	if n := len(idle.solvers); n != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d idle solvers, want GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
	last := idle.solvers[len(idle.solvers)-1]
	if s := takeSolver(); s != last {
		t.Fatal("takeSolver did not return the most recently kept solver")
	}
	if idle.solvers[:len(idle.solvers)+1][len(idle.solvers)] != nil {
		t.Fatal("the idle stack's backing array still holds a taken solver")
	}
}
