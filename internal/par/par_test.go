package par

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regimap/internal/maperr"
)

// TestFirstReturnsLowestSuccess sweeps random success sets: at every worker
// count First must return the sequential loop's answer, every index at or
// below it must have run, and no two indices may run at once in one worker
// slot.
func TestFirstReturnsLowestSuccess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		ok := make([]bool, n)
		want := n
		for i := range ok {
			ok[i] = rng.Intn(8) == 0
			if ok[i] && want == n {
				want = i
			}
		}
		for _, workers := range []int{1, 2, 8} {
			ran := make([]atomic.Bool, n)
			busy := make([]atomic.Bool, workers)
			got := First(context.Background(), n, workers, func(_ context.Context, w, i int) bool {
				if w < 0 || w >= workers || busy[w].Swap(true) {
					t.Errorf("index %d got worker slot %d: out of range or in use", i, w)
					return false
				}
				defer busy[w].Store(false)
				ran[i].Store(true)
				if i%3 == 0 {
					runtime.Gosched() // vary the interleaving
				}
				return ok[i]
			})
			if got != want {
				t.Fatalf("trial %d workers %d: First = %d, want %d (successes %v)", trial, workers, got, want, ok)
			}
			for i := 0; i < n && i <= want; i++ {
				if !ran[i].Load() {
					t.Fatalf("trial %d workers %d: index %d <= %d never ran", trial, workers, i, want)
				}
			}
		}
	}
}

// TestFirstInlineStopsAtFirstSuccess pins the workers <= 1 path: it runs on
// the caller's goroutine, in index order, and never starts an index above
// the first success.
func TestFirstInlineStopsAtFirstSuccess(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		got := First(context.Background(), 10, workers, func(_ context.Context, w, i int) bool {
			if id := goroutineID(); id != caller {
				t.Errorf("index %d ran on goroutine %s, caller is %s", i, id, caller)
			}
			if w != 0 {
				t.Errorf("inline worker = %d, want 0", w)
			}
			order = append(order, i)
			return i == 4 || i == 7
		})
		if got != 4 {
			t.Fatalf("workers %d: First = %d, want 4", workers, got)
		}
		if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
			t.Fatalf("workers %d: ran %v, want %v", workers, order, want)
		}
	}
}

// TestFirstCancelsHigherInFlight: an index still running when a lower one
// succeeds must see its context cancelled.
func TestFirstCancelsHigherInFlight(t *testing.T) {
	started := make(chan struct{})
	var cancelled atomic.Bool
	got := First(context.Background(), 2, 2, func(ctx context.Context, _, i int) bool {
		if i == 0 {
			<-started // succeed only once index 1 is in flight
			return true
		}
		close(started)
		select {
		case <-ctx.Done():
			cancelled.Store(true)
		case <-time.After(10 * time.Second):
		}
		return true
	})
	if got != 0 {
		t.Fatalf("First = %d, want 0", got)
	}
	if !cancelled.Load() {
		t.Fatal("index 1 was still in flight when index 0 succeeded but never saw its context cancelled")
	}
}

// TestFirstStopsOnCancelledContext: no index starts once the caller's
// context is cancelled.
func TestFirstStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		if got := First(ctx, 8, workers, func(context.Context, int, int) bool {
			ran.Add(1)
			return false
		}); got != 8 || ran.Load() != 0 {
			t.Fatalf("workers %d: First = %d after %d runs, want 8 after 0", workers, got, ran.Load())
		}
	}
}

// TestFirstReraisesWorkerPanic: a panicking index stops the race and is
// re-raised on the caller as a *maperr.WorkerPanicError, but only after
// every other goroutine has returned.
func TestFirstReraisesWorkerPanic(t *testing.T) {
	var started, finished atomic.Int64
	defer func() {
		v := recover()
		err, ok := v.(*maperr.WorkerPanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *maperr.WorkerPanicError", v, v)
		}
		if !errors.Is(err, maperr.ErrWorkerPanic) {
			t.Errorf("%v does not wrap ErrWorkerPanic", err)
		}
		if err.Value != "boom" || !strings.Contains(err.Worker, "index 3") {
			t.Errorf("panic = %q from %q, want boom from index 3", err.Value, err.Worker)
		}
		if !bytes.Contains(err.Stack, []byte("par_test")) {
			t.Errorf("stack does not point at the panic site:\n%s", err.Stack)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("First re-raised with %d of %d indices still running", s-f, s)
		}
	}()
	First(context.Background(), 8, 4, func(ctx context.Context, _, i int) bool {
		started.Add(1)
		defer finished.Add(1)
		if i == 3 {
			panic("boom")
		}
		select { // hold the other goroutines until the panic stops the race
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		return false
	})
	t.Fatal("First returned instead of re-raising the panic")
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestLadderGateSharedAcrossLadders pins the speculation gate every II
// ladder enters, whatever its outcome type (the exact engine's verdicts,
// REGIMap's runs): a ladder's lowest undecided index starts at once, even
// while other ladders hold every core; an index above it waits while every
// core is busy (a done context releases it unstarted) and starts once a
// core is idle, or once it is the lowest undecided index itself; and
// Decided returns the contiguous outcomes.
func TestLadderGateSharedAcrossLadders(t *testing.T) {
	others := make([]Ladder[string], runtime.GOMAXPROCS(0))
	for i := range others {
		if !others[i].Enter(context.Background(), 0) {
			t.Fatal("a lowest undecided index did not start")
		}
	}
	var l Ladder[int]
	if !l.Enter(context.Background(), 0) {
		t.Fatal("the lowest undecided index waited for a core")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if l.Enter(ctx, 1) {
		t.Fatal("a speculative index started while every core was busy")
	}
	cancel()
	started := make(chan struct{})
	go func() {
		if l.Enter(context.Background(), 1) {
			close(started)
		}
	}()
	select {
	case <-started:
		t.Fatal("a speculative index started while every core was busy")
	case <-time.After(10 * time.Millisecond):
	}
	for i := range others {
		others[i].Leave(0, "done")
	}
	if runtime.GOMAXPROCS(0) == 1 {
		l.Leave(0, 10) // index 1 is now the lowest undecided
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting index did not start once it could")
	}
	if runtime.GOMAXPROCS(0) > 1 {
		l.Leave(1, 11)
		if got := l.Decided(); len(got) != 0 {
			t.Fatalf("Decided = %v with index 0 undecided", got)
		}
		l.Leave(0, 10)
	} else {
		l.Leave(1, 11)
	}
	if got := l.Decided(); !slices.Equal(got, []int{10, 11}) {
		t.Fatalf("Decided = %v, want [10 11]", got)
	}
}
