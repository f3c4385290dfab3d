// Package par is the one parallel reduction the mappers share: run
// candidates 0..n-1 concurrently and keep the lowest index that succeeded.
// REGIMap's II ladder and its Explore race, DRESC's restart chains and the
// exact engine's II ladder all reduce this way, which is what keeps each of
// them byte-identical to its sequential loop at any worker count (DESIGN.md
// section 8b); the experiment drivers fan their kernels out through it with
// a try that never succeeds. The two II ladders also share one speculation
// gate (Ladder).
package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"regimap/internal/maperr"
)

// First runs try(ctx, worker, i) for i = 0..n-1 on up to workers goroutines
// and returns the lowest i for which try reported success, or n when none
// did. When try's outcome for i depends only on i, the answer is the one the
// sequential loop "for i := range n { if try(i) { return i } }" gives:
//
//   - indices are claimed in ascending order, and a goroutine stops claiming
//     once the next index lies above a known success, which the sequential
//     loop would never reach;
//   - an index still running when a lower one succeeds sees its context
//     cancelled, and its outcome is ignored;
//   - every index at or below the returned one runs to completion with a
//     context that First never cancels.
//
// worker (0 <= worker < workers) names the scratch slot of the goroutine
// running the index, so callers can hand each goroutine its own scratch
// state. Slots are handed out in the order goroutines first claim an index:
// a race that keeps two goroutines busy uses slots 0 and 1, whose state is
// then warm from earlier races over the same slots. When workers <= 1
// First runs inline on the caller's goroutine, in index order, and stops at
// the first success. Under either mode no index starts once ctx is
// cancelled, and the result is then best-effort.
//
// A panic in try stops the race: no further index starts and the other
// goroutines' contexts are cancelled. Once every goroutine has returned,
// First re-panics on the caller's goroutine with a *maperr.WorkerPanicError
// holding the lowest panicking index's value and stack. Inline, a panic
// propagates unchanged. Callers that must survive a panicking candidate
// recover inside try.
func First(ctx context.Context, n, workers int, try func(ctx context.Context, worker, i int) bool) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if try(ctx, 0, i) {
				return i
			}
		}
		return n
	}
	r := &race{n: n, running: make([]atomic.Int64, workers), cancel: make([]context.CancelFunc, workers)}
	r.best.Store(int64(n))
	wctx := make([]context.Context, workers)
	for g := range wctx {
		wctx[g], r.cancel[g] = context.WithCancel(ctx)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := range wctx {
		go func(g int) {
			defer wg.Done()
			r.work(wctx[g], g, try)
		}(g)
	}
	wg.Wait()
	for _, cancel := range r.cancel {
		cancel()
	}
	if r.panicked != nil {
		panic(r.panicked)
	}
	return int(r.best.Load())
}

// race is First's shared state. Claims and successes are lock-free so that
// goroutines never park on each other between candidates. A goroutine
// publishes the index it claimed before checking it against best, and a
// success lowers best before scanning the published indices, so either the
// claimer sees the success and stops, or the success sees the claim and
// cancels it.
type race struct {
	n        int
	next     atomic.Int64   // lowest unclaimed index
	best     atomic.Int64   // lowest successful index so far (n: none; -1 after a panic)
	slots    atomic.Int64   // scratch slots handed out so far
	running  []atomic.Int64 // per goroutine, the index it last claimed
	cancel   []context.CancelFunc
	mu       sync.Mutex // guards panicked and panicAt
	panicked *maperr.WorkerPanicError
	panicAt  int
}

// work runs goroutine g's claims. g indexes running and cancel; the slot
// passed to try is taken at g's first claim.
func (r *race) work(ctx context.Context, g int, try func(ctx context.Context, worker, i int) bool) {
	i, slot := -1, -1
	defer func() {
		if v := recover(); v != nil {
			r.fail(slot, i, v, debug.Stack())
		}
	}()
	for ctx.Err() == nil {
		i = int(r.next.Add(1) - 1)
		r.running[g].Store(int64(i))
		if i >= r.n || int64(i) > r.best.Load() {
			return // every later claim lies above a known success too
		}
		if slot < 0 {
			slot = int(r.slots.Add(1) - 1)
		}
		if try(ctx, slot, i) {
			r.succeed(i)
		}
	}
}

// succeed lowers best to i and cancels every goroutine running an index
// above it.
func (r *race) succeed(i int) {
	for {
		b := r.best.Load()
		if int64(i) >= b {
			return
		}
		if r.best.CompareAndSwap(b, int64(i)) {
			break
		}
	}
	for g := range r.running {
		if r.running[g].Load() > int64(i) {
			r.cancel[g]()
		}
	}
}

// fail records index i's panic, keeping the lowest index's, and stops the
// race: best drops below every index, and every goroutine is cancelled.
func (r *race) fail(slot, i int, v any, stack []byte) {
	r.mu.Lock()
	if r.panicked == nil || i < r.panicAt {
		r.panicAt = i
		r.panicked = &maperr.WorkerPanicError{Worker: fmt.Sprintf("parallel worker %d at index %d", slot, i), Value: v, Stack: stack}
	}
	r.mu.Unlock()
	r.best.Store(-1)
	for _, cancel := range r.cancel {
		cancel()
	}
}
