// Package maperr defines the error taxonomy shared by every mapper in the
// repository. Callers branch on failure classes with errors.Is / errors.As
// instead of string matching:
//
//   - ErrNoMapping: the search space is exhausted — no mapping exists within
//     the configured II budget. Escalating the budget (or degrading to a
//     different mapper, see internal/resilient) may still succeed.
//   - ErrAborted: the search was cut short by context cancellation before the
//     space was exhausted; the underlying ctx.Err() is also in the wrap chain,
//     so errors.Is(err, context.DeadlineExceeded) keeps working.
//   - ErrWorkerPanic / *WorkerPanicError: a worker goroutine (a raced
//     placement pass, a DRESC restart chain, a resilience rung) panicked;
//     the typed error carries the recovered value and stack instead of
//     crashing the process.
//   - ErrTransient: the failure is environmental, not a property of the
//     (kernel, array, budget) inputs — retrying the identical call may
//     succeed. The job subsystem's retry/backoff loop keys on IsTransient.
//   - *InvalidMappingError: a mapper produced a result its own validator
//     rejects — always a bug in the mapper, never a property of the kernel.
//
// The sentinels are deliberately package-neutral: core, ems, dresc, and
// exact all wrap the same values, so a caller holding results from any
// mapper needs exactly one errors.Is test per failure class.
package maperr

import (
	"errors"
	"fmt"
)

// ErrNoMapping reports an exhausted search: no mapping exists within the II
// (or retry) budget the caller configured.
var ErrNoMapping = errors.New("no feasible mapping within the budget")

// ErrAborted reports a context-driven abort: the search ended because ctx was
// cancelled, not because the space was exhausted.
var ErrAborted = errors.New("mapping aborted")

// ErrWorkerPanic is the sentinel every *WorkerPanicError wraps, so callers
// can test for the class without destructuring the typed error.
var ErrWorkerPanic = errors.New("mapping worker panicked")

// ErrTransient marks failures that say nothing about the inputs: a
// dependency briefly unavailable, every circuit open, a backend mid-restart.
// Retrying the identical call later may succeed, so retry loops treat this
// class (and recovered panics) as retryable where ErrNoMapping is final.
var ErrTransient = errors.New("transient mapping failure")

// Transient is Wrap with the ErrTransient sentinel plus the underlying cause.
func Transient(cause error, format string, args ...any) error {
	return Wrap([]error{ErrTransient, cause}, format, args...)
}

// IsTransient reports whether err is worth retrying with the same inputs:
// explicitly transient failures and recovered worker panics qualify;
// exhausted searches (ErrNoMapping) and context-driven aborts do not — the
// former is deterministic, the latter is the caller's own budget expiring.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrWorkerPanic)
}

// wrapped carries a fixed message plus any number of wrapped causes. It keeps
// the exact human-readable text the mappers have always produced while making
// the failure class (and any underlying ctx error) reachable via errors.Is.
type wrapped struct {
	msg    string
	causes []error
}

func (w *wrapped) Error() string   { return w.msg }
func (w *wrapped) Unwrap() []error { return w.causes }

// Wrap returns an error whose message is fmt.Sprintf(format, args...) and
// whose wrap chain contains every non-nil cause.
func Wrap(causes []error, format string, args ...any) error {
	kept := make([]error, 0, len(causes))
	for _, c := range causes {
		if c != nil {
			kept = append(kept, c)
		}
	}
	return &wrapped{msg: fmt.Sprintf(format, args...), causes: kept}
}

// NoMapping is Wrap with the ErrNoMapping sentinel.
func NoMapping(format string, args ...any) error {
	return Wrap([]error{ErrNoMapping}, format, args...)
}

// Aborted is Wrap with the ErrAborted sentinel plus the context error that
// triggered the abort.
func Aborted(ctxErr error, format string, args ...any) error {
	return Wrap([]error{ErrAborted, ctxErr}, format, args...)
}

// InvalidMappingError reports that a mapper produced a result rejected by its
// own validator — an internal bug, surfaced as a typed error so harnesses
// (fuzzers, the chaos suite) can distinguish it from an honest mapping
// failure. Err is the validator's verdict.
type InvalidMappingError struct {
	Mapper string // "core", "ems", "dresc"
	What   string // "mapping" or "placement"
	Err    error
}

func (e *InvalidMappingError) Error() string {
	return fmt.Sprintf("%s: internal error, produced invalid %s: %v", e.Mapper, e.What, e.Err)
}

func (e *InvalidMappingError) Unwrap() error { return e.Err }

// WorkerPanicError is a recovered panic from a mapping worker, preserved with
// its stack so the failure is diagnosable after the fact. It wraps
// ErrWorkerPanic for class tests.
type WorkerPanicError struct {
	Worker string // which worker panicked, e.g. "parallel worker 1 at index 3"
	Value  any    // the recovered value
	Stack  []byte // the panicking goroutine's stack
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("%s panicked: %v", e.Worker, e.Value)
}

func (e *WorkerPanicError) Unwrap() error { return ErrWorkerPanic }
