// Package engine defines the one interface every mapper in this repository
// is reached through when the caller picks the mapper by name, plus the
// process-wide registry binding names to implementations.
//
// Engines register themselves at init time (each internal mapper package
// carries an `engine.Register` call). regimapd, the resilient degradation
// ladder, the CLI listings and the benchmark dispatch by name, so racing,
// degrading, or exposing a new backend is a registry lookup instead of
// another switch arm; SAT-MapIt-style backend swapping (see PAPERS.md)
// falls out for free. The root package's typed Map* functions call their
// engine directly, since each already names the one engine it wants.
//
// The package is a leaf: it imports only the shared data model (dfg, arch,
// mapping), never a concrete engine, so any engine package may import it.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/mapping"
)

// Options is the engine-independent part of a mapping request. Engine
// specific knobs travel in Extra as the engine's own options struct (e.g.
// core.Options for "regimap"); a nil Extra selects the engine's defaults.
type Options struct {
	// MinII, when positive, overrides the II the escalation starts from.
	MinII int
	// MaxII, when positive, caps II escalation.
	MaxII int
	// Extra is the engine-specific options value; each adapter documents the
	// concrete type it accepts. Wrong types are an error, not a silent
	// default — a caller passing ems.Options to "dresc" has a bug.
	Extra any
}

// Result is what any engine hands back. Exactly one of Mapping and Artifact
// is the solution: time-extended mappers fill Mapping (which always passes
// mapping.Validate), while engines whose solution has no mapping.Mapping
// representation (DRESC's routed MRRG placements) fill Artifact.
type Result struct {
	// Mapping is the placed-and-scheduled kernel (nil for artifact engines).
	Mapping *mapping.Mapping
	// Artifact is the engine-specific solution when Mapping is nil, e.g.
	// *dresc.Placement.
	Artifact any
	// MII and II are the paper's metrics: the lower bound and what the
	// engine achieved (II is 0 when mapping failed).
	MII, II int
	// Rounds is the engine's own progress unit — schedule/place attempts for
	// REGIMap, greedy placements for EMS, annealing moves for DRESC — the
	// comparable "how hard did it work" count regimapd reports.
	Rounds int
	// Stats is the engine's full stats struct (e.g. *core.Stats), for
	// callers that know the concrete engine.
	Stats any
	// Elapsed is the wall-clock the run took.
	Elapsed time.Duration
}

// Perf returns the paper's performance metric MII/II (0 on failure).
func (r *Result) Perf() float64 {
	if r == nil || r.II == 0 {
		return 0
	}
	return float64(r.MII) / float64(r.II)
}

// Mapper is the unified engine contract. Map returns the engine's result;
// on failure it returns a non-nil error and, whenever the run got far enough
// to measure anything, a partial Result carrying MII/Rounds/Stats — callers
// that report effort (regimapd) read those even from failed runs.
// Implementations must honour ctx cancellation at their natural attempt
// boundaries and be safe for concurrent use.
type Mapper interface {
	// Name is the registry key, e.g. "regimap", "ems", "dresc".
	Name() string
	// Map maps the kernel onto the array.
	Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts Options) (*Result, error)
}

// Describer is optionally implemented by engines that carry a one-line
// human description (surfaced by `regimap -list-mappers`).
type Describer interface {
	Describe() string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Mapper{}
)

// Register adds an engine under its Name. Engines call it from init(), so
// importing a mapper package is what makes it dispatchable; a duplicate name
// is a programming error and panics.
func Register(m Mapper) {
	regMu.Lock()
	defer regMu.Unlock()
	name := m.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", name))
	}
	registry[name] = m
}

// Lookup returns the named engine.
func Lookup(name string) (Mapper, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := registry[name]
	return m, ok
}

// MustLookup is Lookup for names the program itself registered; unknown
// names panic with the registered set in the message.
func MustLookup(name string) Mapper {
	m, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("engine: no engine %q registered (have %v)", name, Names()))
	}
	return m
}

// Names returns every registered engine name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns the engine's one-line description, or "" when it has
// none.
func Describe(m Mapper) string {
	if d, ok := m.(Describer); ok {
		return d.Describe()
	}
	return ""
}

// BadOptionsError reports an Options.Extra value of the wrong concrete type
// for the engine it was passed to.
type BadOptionsError struct {
	Engine string
	Want   string
	Got    any
}

func (e *BadOptionsError) Error() string {
	return fmt.Sprintf("engine %s: Options.Extra is %T, want %s", e.Engine, e.Got, e.Want)
}
