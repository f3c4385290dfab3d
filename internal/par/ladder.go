package par

import (
	"context"
	"runtime"
	"sync"
)

// gate holds speculation to idle cores, process-wide. Every ladder index
// between Enter and Leave, in any Ladder of any engine, counts in busy: the
// exact engine's IIs and REGIMap's IIs share one count. A ladder's lowest
// undecided index always starts; an index above it starts only while busy
// is below GOMAXPROCS, so concurrent ladders on busy cores run one index
// each, as their sequential loops would.
var gate struct {
	mu    sync.Mutex
	busy  int
	freed chan struct{} // closed, and dropped, whenever an index leaves
}

// MaxInFlight is the default bound of one raced II ladder: the lowest
// undecided II and one speculative II above it. Each II in flight holds its
// engine's working set (a formula, a compat graph), so the bound keeps one
// call's memory at two IIs' on any number of cores; a deeper race would
// mostly add IIs above the winner, which are waste.
const MaxInFlight = 2

// Ladder is the admission and outcome record of one II ladder raced through
// First: index i is the ladder's i-th II, and each index brackets its work
// with Enter and Leave. The zero value is an empty ladder. Its fields are
// guarded by the gate's mutex, so one ladder serves every goroutine of its
// race.
type Ladder[T any] struct {
	out []T    // by index, up to the highest index that left
	ran []bool // parallel to out: the index left with an outcome
	low int    // the lowest index without an outcome: the undecided II
}

// Enter waits until index i may start: at once when it is the lowest
// undecided index or a core is idle, else until an index leaves somewhere
// in the process. It reports false, and i must not start, once ctx is done.
func (l *Ladder[T]) Enter(ctx context.Context, i int) bool {
	for ctx.Err() == nil {
		gate.mu.Lock()
		if i == l.low || gate.busy < runtime.GOMAXPROCS(0) {
			gate.busy++
			gate.mu.Unlock()
			return true
		}
		if gate.freed == nil {
			gate.freed = make(chan struct{})
		}
		freed := gate.freed
		gate.mu.Unlock()
		select {
		case <-freed:
		case <-ctx.Done():
		}
	}
	return false
}

// Leave records index i's outcome, frees its core and wakes every index
// waiting in Enter. Only IIs that ran take memory, so a ladder over a huge
// II range costs nothing up front.
func (l *Ladder[T]) Leave(i int, r T) {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	gate.busy--
	if gate.freed != nil {
		close(gate.freed)
		gate.freed = nil
	}
	if i >= len(l.out) {
		l.out = append(l.out, make([]T, i+1-len(l.out))...)
		l.ran = append(l.ran, make([]bool, i+1-len(l.ran))...)
	}
	l.out[i], l.ran[i] = r, true
	for l.low < len(l.ran) && l.ran[l.low] {
		l.low++
	}
}

// Decided returns the outcomes of indices 0..k-1, where k is the lowest
// index without one. Those outcomes never change again, so the caller may
// read the returned slice while the race goes on.
func (l *Ladder[T]) Decided() []T {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	return l.out[:l.low:l.low]
}
