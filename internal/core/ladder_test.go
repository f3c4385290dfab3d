package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/kernels"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/par"
)

// ladderCase is one escalation the raced ladder must reproduce.
type ladderCase struct {
	name string
	d    *dfg.DFG
	c    *arch.CGRA
	opts Options
}

// ladderRun is everything an escalation returns, with wall-clock scrubbed.
type ladderRun struct {
	stats   Stats
	mapping string // canonical text; "" without a mapping
	err     string
}

// iiCall is one call of a ladder's per-II mapper.
type iiCall struct {
	ii, budget, rounds int
	mapped             bool
}

// recorder wraps mapAtII, recording every call; before, when set, runs
// first and may block.
type recorder struct {
	mu     sync.Mutex
	calls  []iiCall
	before func(ctx context.Context, ii int)
	after  func(ii int)
}

func (r *recorder) mapII(ctx context.Context, d *dfg.DFG, c *arch.CGRA, ii, budget int, opts Options, stats *Stats, tr *obs.Tracer, cb *CompatBuilder, snaps *[]Stats) *mapping.Mapping {
	if r.before != nil {
		r.before(ctx, ii)
	}
	m := mapAtII(ctx, d, c, ii, budget, opts, stats, tr, cb, snaps)
	r.mu.Lock()
	r.calls = append(r.calls, iiCall{ii, budget, stats.Attempts, m != nil})
	r.mu.Unlock()
	if r.after != nil {
		r.after(ii)
	}
	return m
}

func runLadder(ctx context.Context, tc ladderCase, workers int, r *recorder) (ladderRun, error) {
	if r == nil {
		r = &recorder{}
	}
	m, st, err := mapLadder(ctx, tc.d, tc.c, tc.opts, "regimap", workers, r.mapII)
	var out ladderRun
	if st != nil {
		out.stats = *st
		out.stats.Elapsed = 0
	}
	if m != nil {
		out.mapping = m.String()
	}
	if err != nil {
		out.err = err.Error()
	}
	return out, err
}

// goldenLadderCases are TestGoldenArchZoo's REGIMap compiles: every suite
// kernel on zoo fabrics at the default options. -short keeps
// hetero-mem-col, whose compiles climb the most IIs.
func goldenLadderCases(t *testing.T) []ladderCase {
	fabrics := []string{"hetero-mem-col", "paper-4x4", "adres-4x4", "onehop-4x4", "torus-8x8", "band2-4x4"}
	if testing.Short() {
		fabrics = fabrics[:1]
	}
	var out []ladderCase
	for _, f := range fabrics {
		c, err := arch.Lookup(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernels.All() {
			out = append(out, ladderCase{f + "/" + k.Name, k.Build(), c, Options{}})
		}
	}
	return out
}

// raced and spec index a sequential ladder's calls: the first II that
// races (the lowest undecided one when the race starts) and the speculative
// II above it.
const raced, spec = soloIIs, soloIIs + 1

// randomLadderCases are small random kernels on tiny fabrics at small round
// budgets, so their ladders climb several IIs. Each kernel whose sequential
// ladder runs past the first speculative II yields three cases: its own
// escalation; a total budget that ends in the middle of that II, so its
// speculative run must be truncated; and a window that ends at the first
// raced II without a mapping.
func randomLadderCases(t *testing.T) []ladderCase {
	fabrics := []*arch.CGRA{arch.NewMesh(2, 2, 1), arch.NewMesh(1, 3, 2), arch.NewMesh(2, 2, 2)}
	var out []ladderCase
	for seed := int64(1); len(out) < 24 && seed < 400; seed++ {
		d := kernels.Random(seed, kernels.RandomOptions{Ops: 8 + int(seed%8), Recurrence: int(seed % 3)})
		tc := ladderCase{fmt.Sprintf("rand%d", seed), d, fabrics[seed%3], Options{MaxAttemptsPerII: 2 + int(seed%3)}}
		r := &recorder{}
		if _, err := runLadder(context.Background(), tc, 1, r); err != nil && !errors.Is(err, ErrNoMapping) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(r.calls) <= spec || r.calls[spec].rounds < 2 {
			continue
		}
		cut := tc
		cut.name += "/cut-speculative-II"
		for _, c := range r.calls[:spec+1] {
			cut.opts.MaxTotalAttempts += c.rounds
		}
		cut.opts.MaxTotalAttempts--
		window := tc
		window.name += "/window"
		window.opts.MaxII = r.calls[raced].ii
		out = append(out, tc, cut, window)
	}
	if len(out) < 12 {
		t.Fatalf("only %d random ladder cases climb past the first speculative II", len(out))
	}
	return out
}

// TestRacedLadderMatchesSequential diffs the raced ladder at 2 and 8
// workers against the sequential one (1 worker) on the golden compiles and
// the random ladders: Stats field by field (Elapsed aside), the mapping's
// canonical text and the error. On the random ladders the first raced II
// waits, when a core is free for it, until the speculative II above it has
// ended, so that II runs its full per-II budget, and every cut case must
// read its truncated snapshot.
func TestRacedLadderMatchesSequential(t *testing.T) {
	random := randomLadderCases(t)
	for _, tc := range goldenLadderCases(t) {
		want, _ := runLadder(context.Background(), tc, 1, nil)
		for _, workers := range []int{2, 8} {
			if got, _ := runLadder(context.Background(), tc, workers, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d workers:\n got %+v\nwant %+v", tc.name, workers, got, want)
			}
		}
	}
	truncated := 0
	for _, tc := range random {
		seq := &recorder{}
		want, _ := runLadder(context.Background(), tc, 1, seq)
		for _, workers := range []int{2, 8} {
			r := &recorder{}
			if runtime.GOMAXPROCS(0) >= 2 && len(seq.calls) > spec {
				second, third := seq.calls[raced].ii, seq.calls[spec].ii
				thirdDone := make(chan struct{})
				var once sync.Once
				r.after = func(ii int) {
					if ii == third {
						once.Do(func() { close(thirdDone) })
					}
				}
				r.before = func(ctx context.Context, ii int) {
					if ii != second {
						return
					}
					select {
					case <-thirdDone:
					case <-time.After(10 * time.Second):
						t.Errorf("%s: a core was idle, yet II %d never ran beside II %d", tc.name, third, second)
					}
				}
			}
			got, _ := runLadder(context.Background(), tc, workers, r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d workers:\n got %+v\nwant %+v", tc.name, workers, got, want)
			}
			for _, c := range r.calls {
				for _, s := range seq.calls {
					if c.ii == s.ii && c.rounds > s.budget {
						truncated++
					}
				}
			}
		}
	}
	if runtime.GOMAXPROCS(0) >= 2 && truncated == 0 {
		t.Error("no raced II ran past its real budget: the fold's truncation went unexercised")
	}
}

// TestRacedLadderCancelledAfterFirstII cancels the caller's context as the
// first II's result comes in, at 1, 2 and 8 workers. An escalation whose
// first II failed must then abort, whatever ran after.
func TestRacedLadderCancelledAfterFirstII(t *testing.T) {
	for _, tc := range randomLadderCases(t) {
		for _, workers := range []int{1, 2, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			first := -1
			r := &recorder{after: func(ii int) {
				if first == -1 {
					first = ii
					cancel()
				}
			}}
			_, err := runLadder(ctx, tc, workers, r)
			cancel()
			if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s at %d workers: cancelled escalation returned %v, want ErrAborted", tc.name, workers, err)
			}
		}
	}
}

// TestRacedLadderCutIIAborts: a deadline that cuts the lowest undecided II
// short must abort the escalation, even when the speculative II above it
// has already mapped, as the sequential loop would have aborted in the cut
// II. The first raced II waits until the speculative one has ended, then
// finds its context done; among the cases some speculative II maps.
func TestRacedLadderCutIIAborts(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("no core is ever idle for a speculative II")
	}
	mapped := 0
	for _, tc := range randomLadderCases(t) {
		seq := &recorder{}
		runLadder(context.Background(), tc, 1, seq)
		if len(seq.calls) <= spec {
			continue
		}
		second, third := seq.calls[raced].ii, seq.calls[spec].ii
		ctx, cancel := context.WithCancel(context.Background())
		thirdDone := make(chan struct{})
		var once sync.Once
		r := &recorder{
			after: func(ii int) {
				if ii == third {
					once.Do(func() { close(thirdDone) })
				}
			},
			before: func(_ context.Context, ii int) {
				if ii != second {
					return
				}
				select {
				case <-thirdDone:
				case <-time.After(10 * time.Second):
					t.Errorf("%s: a core was idle, yet II %d never ran beside II %d", tc.name, third, second)
				}
				cancel()
			},
		}
		_, err := runLadder(ctx, tc, 2, r)
		cancel()
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: escalation cut at II %d returned %v, want ErrAborted", tc.name, second, err)
		}
		for _, c := range r.calls {
			if c.ii == third && c.mapped {
				mapped++
			}
		}
	}
	if mapped == 0 {
		t.Error("no speculative II mapped: the cut went untested where it matters")
	}
}

// TestConcurrentLaddersMatchSequential runs the random ladders as concurrent
// escalations, which share the speculation gate: every result must still be
// its sequential ladder's.
func TestConcurrentLaddersMatchSequential(t *testing.T) {
	cases := randomLadderCases(t)
	want := make([]ladderRun, len(cases))
	for i, tc := range cases {
		want[i], _ = runLadder(context.Background(), tc, 1, nil)
	}
	got := make([]ladderRun, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = runLadder(context.Background(), tc, par.MaxInFlight, nil)
		}()
	}
	wg.Wait()
	for i, tc := range cases {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s run concurrently:\n got %+v\nwant %+v", tc.name, got[i], want[i])
		}
	}
}

// holdCores counts n cores busy in the process-wide speculation gate, as n
// ladders of any engine (the exact engine's IIs enter the same gate) each
// running its lowest undecided II would, until release.
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

// TestLadderSpeculatesOnIdleCoresOnly pins the speculation gate. With every
// core counted busy by IIs elsewhere in the process, a raced escalation maps
// one II at a time; with a core idle, the II above the undecided one starts
// while that one runs. Either way the result is the sequential ladder's.
func TestLadderSpeculatesOnIdleCoresOnly(t *testing.T) {
	tc := randomLadderCases(t)[0]
	seq := &recorder{}
	want, _ := runLadder(context.Background(), tc, 1, seq)

	var running, peak atomic.Int32
	counted := &recorder{
		before: func(context.Context, int) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
		},
		after: func(int) { running.Add(-1) },
	}
	release := holdCores(runtime.GOMAXPROCS(0))
	got, _ := runLadder(context.Background(), tc, 2, counted)
	release()
	if p := peak.Load(); p != 1 {
		t.Errorf("every core busy: %d IIs mapped at once, want 1", p)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("every core busy:\n got %+v\nwant %+v", got, want)
	}

	if runtime.GOMAXPROCS(0) < 2 {
		return // no core is ever idle while an II runs
	}
	second, third := seq.calls[raced].ii, seq.calls[spec].ii
	started := make(chan struct{})
	var once sync.Once
	waiting := &recorder{before: func(_ context.Context, ii int) {
		switch ii {
		case third:
			once.Do(func() { close(started) })
		case second:
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Errorf("a core was idle, yet II %d never started beside II %d", third, second)
			}
		}
	}}
	if got, _ := runLadder(context.Background(), tc, 2, waiting); !reflect.DeepEqual(got, want) {
		t.Fatalf("idle cores:\n got %+v\nwant %+v", got, want)
	}
}

// TestMapHugeMaxIIIsFree: MaxII comes from callers (regimapd takes it from
// the request), so a ladder may take memory only for IIs that ran. A window
// of two billion IIs over an unmappable kernel ends at the total round
// budget exactly as a window that just covers it does, with bounded
// allocation, raced or not.
func TestMapHugeMaxIIIsFree(t *testing.T) {
	d, c := unmappable()
	opts := Options{MaxII: math.MaxInt32, MaxAttemptsPerII: 2, MaxTotalAttempts: 12}
	small := opts
	small.MaxII = 40
	tc := ladderCase{"huge", d, c, opts}
	want, _ := runLadder(context.Background(), ladderCase{"small", d, c, small}, 1, nil)
	want.err = ""
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := runLadder(context.Background(), tc, workers, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrNoMapping) {
			t.Fatalf("%d workers: %v, want ErrNoMapping", workers, err)
		}
		got.err = ""
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers:\n got %+v\nwant %+v", workers, got, want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Fatalf("%d workers: allocated %d MB", workers, alloc>>20)
		}
	}
}

// TestTracedLadderNests: a traced compile maps its IIs one at a time on the
// caller's goroutine, so its spans nest (every pass span inside its II's
// span, no two spans overlapping without one containing the other), and it
// returns the untraced compile's result. conv3x3 on torus-8x8 climbs
// several IIs, which an untraced compile races.
func TestTracedLadderNests(t *testing.T) {
	c, err := arch.Lookup("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	k, _ := kernels.ByName("conv3x3")
	tc := ladderCase{"conv3x3", k.Build(), c, Options{}}
	want, _ := runLadder(context.Background(), tc, 0, nil)
	sink := &obs.MemSink{}
	ctx := obs.With(context.Background(), obs.New(sink))
	m, st, err := Map(ctx, tc.d, tc.c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := ladderRun{stats: *st, mapping: m.String()}
	got.stats.Elapsed = 0
	if want.stats.Elapsed = 0; !reflect.DeepEqual(got, want) {
		t.Fatalf("traced:\n got %+v\nwant %+v", got, want)
	}
	// Parents open no later than their children and, on a shared start,
	// last at least as long, so this order visits a parent first.
	var spans []obs.Event
	iis := 0
	for _, e := range sink.Events() {
		if e.Dur > 0 {
			spans = append(spans, e)
		}
		if e.Name == "ii.attempt" {
			iis++
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
	var stack []obs.Event
	for _, e := range spans {
		for len(stack) > 0 && stack[len(stack)-1].Start+stack[len(stack)-1].Dur <= e.Start {
			stack = stack[:len(stack)-1]
		}
		if n := len(stack); n > 0 && e.Start+e.Dur > stack[n-1].Start+stack[n-1].Dur {
			t.Fatalf("span %s [%v +%v] overlaps %s [%v +%v] without nesting",
				e.Name, e.Start, e.Dur, stack[n-1].Name, stack[n-1].Start, stack[n-1].Dur)
		}
		if n := len(stack); strings.HasPrefix(e.Name, "pass.") && (n == 0 || stack[0].Name != "ii.attempt") {
			t.Fatalf("span %s [%v +%v] lies in no ii.attempt span", e.Name, e.Start, e.Dur)
		}
		stack = append(stack, e)
	}
	if iis < 3 {
		t.Fatalf("conv3x3 on torus-8x8 tried %d IIs, want several", iis)
	}
}
