// Package regimap is a from-scratch Go reproduction of "REGIMap:
// Register-Aware Application Mapping on Coarse-Grained Reconfigurable
// Architectures (CGRAs)" (Hamzeh, Shrivastava, Vrudhula — DAC 2013).
//
// It contains everything the paper's system needs, built on the standard
// library only:
//
//   - a loop-kernel data-flow graph model with the modulo-scheduling analyses
//     (ResMII / RecMII / MII),
//   - a CGRA architecture model (2-D PE mesh, output registers, rotating
//     local register files, shared row memory buses),
//   - the REGIMap mapper itself: modulo scheduling plus integrated placement
//     and register allocation via a register-weight-constrained maximal
//     clique over the compatibility graph, with the paper's
//     learn-from-failure loop,
//   - the DRESC (simulated annealing over an MRRG) and EMS (edge-centric
//     greedy) baselines it is evaluated against,
//   - a cycle-accurate functional simulator that proves mappings execute
//     bit-identically to a sequential reference interpreter,
//   - the benchmark kernel suite standing in for the paper's multimedia and
//     SPEC2006 loops, and
//   - the experiment harness regenerating every figure and table of the
//     paper's evaluation (see EXPERIMENTS.md).
//
// # Quick start
//
//	k, _ := regimap.KernelByName("fir8")
//	cgra := regimap.NewMesh(4, 4, 4) // 4x4 PEs, 4 registers each
//	m, stats, err := regimap.Map(k.Build(), cgra, regimap.Options{})
//	if err != nil { ... }
//	fmt.Printf("II=%d (lower bound %d)\n", stats.II, stats.MII)
//	fmt.Print(m)                          // the kernel configuration table
//	err = regimap.Simulate(m, 16)         // prove it computes correctly
//
// The deeper layers (compatibility-graph construction, the clique engine,
// the scheduler) live in internal packages and are documented in DESIGN.md;
// this package re-exports the surface a downstream user needs.
package regimap

import (
	"context"
	"io"

	"regimap/internal/arch"
	"regimap/internal/config"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/dresc"
	"regimap/internal/ems"
	"regimap/internal/engine"
	"regimap/internal/exact"
	"regimap/internal/fault"
	"regimap/internal/kernels"
	"regimap/internal/loopir"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/resilient"
	"regimap/internal/sim"
	"regimap/internal/viz"
)

// Re-exported architecture types and constructors.
type (
	// CGRA is a coarse-grained reconfigurable array instance.
	CGRA = arch.CGRA
	// Topology selects the inter-PE interconnect.
	Topology = arch.Topology
)

// Interconnect topologies.
const (
	Mesh     = arch.Mesh
	MeshPlus = arch.MeshPlus
	Torus    = arch.Torus
	OneHop   = arch.OneHop
)

// NewMesh returns a rows x cols orthogonal-mesh CGRA with numRegs rotating
// registers per PE — the paper's configuration.
func NewMesh(rows, cols, numRegs int) *CGRA { return arch.NewMesh(rows, cols, numRegs) }

// NewCGRA returns a CGRA with an arbitrary topology.
func NewCGRA(rows, cols, numRegs int, topo Topology) *CGRA {
	return arch.New(rows, cols, numRegs, topo)
}

// Re-exported architecture description language (ADL) types. A fabric is
// described as text ("grid 4x4; topo mesh+; regs 8; bus global cap 2"),
// parsed into an ArchDesc, and compiled into a CGRA; see internal/arch.
type (
	// ArchDesc is a parsed architecture description; Compile builds the CGRA.
	ArchDesc = arch.Desc
	// ArchDescError reports a malformed description with its position.
	ArchDescError = arch.DescError
	// ArchUnfaithfulError reports an array state the ADL cannot express.
	ArchUnfaithfulError = arch.UnfaithfulError
)

// ParseArch parses an ADL description without compiling it.
func ParseArch(text string) (*ArchDesc, error) { return arch.ParseDesc(text) }

// ResolveArch builds a CGRA from a named architecture (see ArchNames) or an
// inline ADL description.
func ResolveArch(nameOrDesc string) (*CGRA, error) { return arch.Resolve(nameOrDesc) }

// ArchNames lists the registered named architectures, sorted.
func ArchNames() []string { return arch.ArchNames() }

// ArchSource returns the ADL text and one-line description of a named
// architecture.
func ArchSource(name string) (adl, blurb string, ok bool) { return arch.ArchSource(name) }

// RegisterArch adds a named architecture to the registry; the description is
// parsed and compiled eagerly so a bad registration fails at startup.
func RegisterArch(name, adl, blurb string) error { return arch.RegisterArch(name, adl, blurb) }

// Re-exported data-flow graph types.
type (
	// DFG is a loop body: operations plus dependences with inter-iteration
	// distances. Build one with NewBuilder.
	DFG = dfg.DFG
	// Builder constructs DFGs.
	Builder = dfg.Builder
	// OpKind enumerates the operations a PE can execute.
	OpKind = dfg.OpKind
)

// NewBuilder starts a new kernel DFG.
func NewBuilder(name string) *Builder { return dfg.NewBuilder(name) }

// Operation kinds (see the dfg package for the full set).
const (
	Const  = dfg.Const
	Input  = dfg.Input
	Add    = dfg.Add
	Sub    = dfg.Sub
	Mul    = dfg.Mul
	And    = dfg.And
	Or     = dfg.Or
	Xor    = dfg.Xor
	Shl    = dfg.Shl
	Shr    = dfg.Shr
	Min    = dfg.Min
	Max    = dfg.Max
	Abs    = dfg.Abs
	Neg    = dfg.Neg
	Not    = dfg.Not
	CmpLT  = dfg.CmpLT
	CmpEQ  = dfg.CmpEQ
	Select = dfg.Select
	Route  = dfg.Route
	Load   = dfg.Load
	Store  = dfg.Store
)

// Re-exported mapper types.
type (
	// Mapping binds every operation of a kernel to a (PE, cycle) slot.
	Mapping = mapping.Mapping
	// Options configures the REGIMap mapper.
	Options = core.Options
	// Stats reports how a REGIMap run went.
	Stats = core.Stats
)

// MapperNames lists every registered mapping engine, sorted: the names
// regimapd, its job path and `regimap -list-mappers` dispatch on through the
// engine registry (regimap/internal/engine). The Map* entry points below
// call their engine directly.
func MapperNames() []string { return engine.Names() }

// Map runs REGIMap: modulo scheduling plus clique-based integrated placement
// and register allocation with the paper's learn-from-failure loop. The
// returned mapping always passes Mapping.Validate; run Simulate to prove it
// functionally correct as well. Map never gives up early on its own — use
// MapContext to bound compile time with a deadline.
func Map(d *DFG, c *CGRA, opts Options) (*Mapping, *Stats, error) {
	return MapContext(context.Background(), d, c, opts)
}

// MapContext is Map with cancellation: the mapper checks ctx before every II
// escalation and every schedule/place attempt, so a deadline bounds compile
// time within one attempt even on unmappable kernels. The returned error
// wraps ctx.Err() when the abort was context-driven. Options.Workers bounds
// the IIs raced at once; the result is the same at any value.
func MapContext(ctx context.Context, d *DFG, c *CGRA, opts Options) (*Mapping, *Stats, error) {
	return core.Map(ctx, d, c, opts)
}

// Baseline mapper types.
type (
	// DRESCOptions configures the simulated-annealing baseline.
	DRESCOptions = dresc.Options
	// DRESCPlacement is a DRESC solution (an MRRG placement with routed
	// paths).
	DRESCPlacement = dresc.Placement
	// DRESCStats reports a DRESC run.
	DRESCStats = dresc.Stats
	// EMSOptions configures the edge-centric greedy baseline.
	EMSOptions = ems.Options
	// EMSStats reports an EMS run.
	EMSStats = ems.Stats
)

// MapDRESC runs the DRESC baseline: simulated-annealing placement and
// routing over the register-explicit modulo routing resource graph.
func MapDRESC(d *DFG, c *CGRA, opts DRESCOptions) (*DRESCPlacement, *DRESCStats, error) {
	return MapDRESCContext(context.Background(), d, c, opts)
}

// MapDRESCContext is MapDRESC with cancellation, honored at annealing-epoch
// and II-escalation boundaries. DRESCOptions.Restarts races that many
// seed-derived annealing chains per II.
func MapDRESCContext(ctx context.Context, d *DFG, c *CGRA, opts DRESCOptions) (*DRESCPlacement, *DRESCStats, error) {
	return dresc.Map(ctx, d, c, opts)
}

// Exact mapper types.
type (
	// ExactOptions configures the SAT-based exact engine.
	ExactOptions = exact.Options
	// ExactStats carries an exact run's certificate plus wall-clock.
	ExactStats = exact.Stats
	// Certificate is the exact engine's proof artifact: the certified MII,
	// the best (possibly proven-optimal) II, and per-II solver verdicts.
	Certificate = exact.Certificate
)

// Lower-bound classes a Certificate's ProvenLowerBound can carry: MII-class
// bounds hold for any mapper; chain-class bounds hold within the exact
// engine's route-chain relaxation (see the Certificate docs).
const (
	ExactLowerBoundMII   = exact.LowerBoundMII
	ExactLowerBoundChain = exact.LowerBoundChain
)

// MapExact runs the exact engine: a reduction of the mapping problem to SAT,
// solved by a built-in CDCL solver, escalating II upward from MII. Unlike
// the heuristics it proves things — a returned mapping is certified optimal
// when every II below it was refuted, and even a failure carries a certified
// lower bound in its Stats. Compile times are exponential in the worst case;
// bound them with MapExactContext or ExactOptions.MaxConflicts.
func MapExact(d *DFG, c *CGRA, opts ExactOptions) (*Mapping, *ExactStats, error) {
	return MapExactContext(context.Background(), d, c, opts)
}

// MapExactContext is MapExact with cancellation, honored within a bounded
// number of solver conflicts at any moment.
func MapExactContext(ctx context.Context, d *DFG, c *CGRA, opts ExactOptions) (*Mapping, *ExactStats, error) {
	return exact.Map(ctx, d, c, opts)
}

// MapEMS runs the EMS-style baseline: edge-centric greedy placement with
// explicit route chains and no learning.
func MapEMS(d *DFG, c *CGRA, opts EMSOptions) (*Mapping, *EMSStats, error) {
	return MapEMSContext(context.Background(), d, c, opts)
}

// MapEMSContext is MapEMS with cancellation, honored at II-escalation
// boundaries.
func MapEMSContext(ctx context.Context, d *DFG, c *CGRA, opts EMSOptions) (*Mapping, *EMSStats, error) {
	return ems.Map(ctx, d, c, opts)
}

// Error taxonomy shared by every mapper: classify failures with errors.Is
// instead of matching message text.
var (
	// ErrNoMapping: the search space is exhausted — no legal mapping exists
	// within the II budget (or the faulted fabric cannot host the kernel).
	ErrNoMapping = maperr.ErrNoMapping
	// ErrAborted: the mapper stopped because the caller's context was
	// cancelled; the ctx error is in the wrap chain.
	ErrAborted = maperr.ErrAborted
	// ErrWorkerPanic: a mapper goroutine panicked and was isolated; the
	// recovered value and stack ride in a *WorkerPanicError (errors.As).
	ErrWorkerPanic = maperr.ErrWorkerPanic
)

// WorkerPanicError carries a recovered panic from an isolated mapper worker.
type WorkerPanicError = maperr.WorkerPanicError

// InvalidMappingError reports a mapper that produced a result failing
// independent validation — an internal bug, not an honest "no mapping".
type InvalidMappingError = maperr.InvalidMappingError

// Fault-injection types: declarative hardware fault models applied to a CGRA.
type (
	// FaultSet is a declarative collection of hardware faults. Parse one
	// with ParseFaults, validate it against an array with Validate, and
	// derive the faulted array view with Apply.
	FaultSet = fault.Set
	// Fault is one hardware defect (broken PE, dead link, reduced register
	// file, dead row bus), permanent or transient.
	Fault = fault.Fault
	// FaultKind discriminates Fault entries.
	FaultKind = fault.Kind
)

// Fault kinds.
const (
	BrokenPE    = fault.BrokenPE
	DeadLink    = fault.DeadLink
	ReducedRegs = fault.ReducedRegs
	DeadRowBus  = fault.DeadRowBus
)

// ParseFaults parses the textual fault grammar, e.g.
// "pe 1,1; link 0,0-0,1; regs 2,2=1; row 3~2" (the ~N suffix marks a fault
// transient, clearing after N retry rounds).
func ParseFaults(text string) (*FaultSet, error) { return fault.Parse(text) }

// Resilient-pipeline types.
type (
	// ResilientOptions configures MapResilient (fault set, per-rung
	// options with their II windows, retry backoff).
	ResilientOptions = resilient.Options
	// ResilientOutcome reports which rung produced the mapping, on which
	// faulted fabric, after how many retry rounds.
	ResilientOutcome = resilient.Outcome
	// Rung identifies one mapper of the degradation ladder.
	Rung = resilient.Rung
)

// Degradation-ladder rungs, best first.
const (
	RungREGIMap = resilient.RungREGIMap
	RungEMS     = resilient.RungEMS
	RungDRESC   = resilient.RungDRESC
)

// MapResilient maps through the degradation ladder (REGIMap, then EMS, then
// DRESC) on a possibly-faulted view of the array, retrying with exponential
// backoff while transient faults clear, and certifies every produced mapping
// against the cycle-accurate simulator. It is the recommended entry point
// when the hardware may be imperfect: a fault degrades the result (a worse II
// or a slower mapper) instead of failing the compile.
func MapResilient(ctx context.Context, d *DFG, c *CGRA, opts ResilientOptions) (*ResilientOutcome, error) {
	return resilient.Map(ctx, d, c, opts)
}

// Kernel is one benchmark loop of the suite.
type Kernel = kernels.Kernel

// Kernels returns the benchmark suite standing in for the paper's multimedia
// and SPEC2006 loops.
func Kernels() []Kernel { return kernels.All() }

// KernelByName returns one benchmark kernel.
func KernelByName(name string) (Kernel, bool) { return kernels.ByName(name) }

// RandomKernel generates a deterministic synthetic kernel (see
// kernels.RandomOptions for knobs).
func RandomKernel(seed int64, opts kernels.RandomOptions) *DFG {
	return kernels.Random(seed, opts)
}

// RandomKernelOptions shapes RandomKernel.
type RandomKernelOptions = kernels.RandomOptions

// Simulate executes the mapping on the cycle-accurate CGRA model for iters
// iterations of every operation and compares each produced value against the
// sequential reference interpreter. A nil error proves functional
// equivalence.
func Simulate(m *Mapping, iters int) error { return sim.Check(m, iters) }

// SimResult holds the value streams of an execution.
type SimResult = sim.Result

// Run executes the mapping and returns the produced value streams together
// with machine-level observations (peak register-file occupancy, cycles).
func Run(m *Mapping, iters int) (*SimResult, error) { return sim.Run(m, iters) }

// Reference interprets a kernel sequentially (the ground-truth semantics).
func Reference(d *DFG, iters int) (*SimResult, error) { return sim.Reference(d, iters) }

// WriteVCD executes the mapping and streams a Value Change Dump of the
// machine (per-PE busy/op/value signals, one timestep per cycle) for
// waveform viewers.
func WriteVCD(w io.Writer, m *Mapping, iters int) error { return sim.WriteVCD(w, m, iters) }

// RenderDFG renders a kernel's data-flow graph as a standalone SVG document,
// layered by schedule level with recurrence edges dashed.
func RenderDFG(d *DFG) (string, error) { return viz.DFG(d) }

// RenderMapping renders a mapping as the paper's time-extended-CGRA picture:
// the mesh replicated per modulo cycle, with forwarding and register-carried
// dependences drawn.
func RenderMapping(m *Mapping) (string, error) { return viz.Mapping(m) }

// Compile parses a C-like loop body (see internal/loopir for the language)
// and lowers it to a data-flow graph ready for any of the mappers — the
// front-end role the paper delegates to its GCC integration.
//
//	d, err := regimap.Compile("dot", `acc = acc + a[i]*b[i]`)
func Compile(name, src string) (*DFG, error) { return loopir.Compile(name, src) }

// MustCompile is Compile for static program text; it panics on error.
func MustCompile(name, src string) *DFG { return loopir.MustCompile(name, src) }

// Program is a concrete kernel configuration: per-PE instruction words with
// operand routing selectors and rotating-register indices.
type Program = config.Program

// Emit lowers a validated mapping to a kernel configuration, binding every
// register-carried value to a rotating-register window and choosing each
// file's rotation phase.
func Emit(m *Mapping) (*Program, error) { return config.Emit(m) }

// ExecuteProgram runs a kernel configuration on the machine-level executor
// (instruction words only — no data-flow graph) for iters iterations.
func ExecuteProgram(p *Program, iters int) (*SimResult, error) { return config.Execute(p, iters) }

// CheckProgram is the strongest end-to-end proof: lower the mapping to
// instruction words, execute them, and compare every value against the
// loop's sequential semantics.
func CheckProgram(m *Mapping, iters int) error { return config.Check(m, iters) }
