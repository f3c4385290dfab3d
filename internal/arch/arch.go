// Package arch models the coarse-grained reconfigurable array of the REGIMap
// paper: a 2-D mesh of processing elements (PEs), each with a single-cycle
// ALU, an output register visible to its mesh neighbours in the next cycle,
// and a small rotating local register file readable only by the PE itself.
// One shared data bus per row permits a single memory access per row per
// cycle.
//
// Beyond the paper's fixed mesh, the package carries a declarative
// architecture description language (desc.go) and a named-architecture
// registry (registry.go): fabrics with diagonal or 1-hop interconnect, torus
// wrap, heterogeneous PE capability classes, per-PE register-file sizes, and
// capacity-checked memory bus groups all compile into the same CGRA type,
// and the paper's 4x4 mesh stays the byte-identical default.
//
// Two derived structures are provided for the mappers:
//
//   - the time-extended PE graph R_II (PEs replicated II times with modulo
//     wrap-around), which REGIMap's compatibility graph is built against, and
//   - the modulo routing resource graph (MRRG) with explicit output-register
//     and register-file nodes, which the DRESC baseline anneals over.
package arch

import (
	"fmt"

	"regimap/internal/dfg"
	"regimap/internal/graph"
)

// Topology selects the inter-PE interconnect.
type Topology int

const (
	// Mesh connects each PE to its 4 orthogonal neighbours (the paper's
	// configuration, Figure 1).
	Mesh Topology = iota
	// MeshPlus adds the 4 diagonal neighbours (a common CGRA variant; used
	// by the interconnect ablation bench).
	MeshPlus
	// Torus wraps the orthogonal mesh around both dimensions.
	Torus
	// OneHop adds distance-2 orthogonal hops to the mesh (the CGRA-Tool /
	// ADRES-style "1-hop" interconnect).
	OneHop
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case Mesh:
		return "mesh"
	case MeshPlus:
		return "mesh+"
	case Torus:
		return "torus"
	case OneHop:
		return "1hop"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// CGRA describes one array instance. The zero value is not usable; construct
// with New, NewMesh, a compiled Desc, or Lookup.
type CGRA struct {
	Rows, Cols int
	NumRegs    int // register budget: the largest nominal file size of any PE
	Topology   Topology

	// caps, when non-nil, restricts which operation kinds each PE supports
	// (heterogeneous arrays). nil means fully homogeneous, the paper's model.
	caps []map[dfg.OpKind]bool

	// Nominal (fault-free) connectivity. nomAdj rows hold the self-or-adjacent
	// relation as bitsets; nomNeighbors caches the neighbour lists. Both are
	// immutable once construction finishes.
	nomAdj       []*graph.Bitset
	nomNeighbors [][]int

	// Effective connectivity. These alias the nominal structures until the
	// first topology fault (DisablePE, CutLink) copies them (ownAdj), so
	// healthy arrays pay no duplication.
	adj       []*graph.Bitset
	neighbors [][]int
	ownAdj    bool

	// nomRegs, when non-nil, holds each PE's nominal register-file size
	// (heterogeneous register files). nil means NumRegs everywhere.
	nomRegs []int

	// Memory-bus bandwidth model. The paper's scheme — one bus per row, one
	// memory operation per bus per cycle — is the nil/nil default and changes
	// nothing. A described fabric may instead group PEs into bus groups
	// (per row, per column, or one global bus) with per-group capacities.
	busGroup []int // per-PE bus group (nil: the PE's row)
	busCap   []int // per-group memory ops per cycle (nil: 1 each)

	// fanout, when positive, bounds how many remote PEs may read one output
	// register in the same cycle (link bandwidth). 0 means unlimited, the
	// paper's model.
	fanout int

	// customLinks records that the description edited the topology's link
	// set (link/nolink statements), so Describe must diff adjacency against
	// the bare topology and wire encoders cannot use the shape fields alone.
	customLinks bool

	// Fault state (see internal/fault). All nil/zero on a healthy array, so
	// the fault-free fast paths and results are untouched. Every fault is a
	// constraint tightening: a broken PE supports nothing and is severed from
	// the mesh, a cut link disappears from Neighbors/Connected, a limited
	// register file lowers RegsAt below the nominal size, and a dead row bus
	// forbids memory operations on that row.
	broken  []bool // ALU dead: PE can execute nothing, its registers are lost
	regCap  []int  // per-PE usable register count (nil: nominal everywhere)
	deadRow []bool // row bus failed: no memory operation may issue on the row
	faults  int    // count of applied fault primitives
}

// NewMesh returns a rows x cols orthogonal-mesh CGRA with the given register
// file size, the configuration used throughout the paper's evaluation.
func NewMesh(rows, cols, numRegs int) *CGRA {
	return New(rows, cols, numRegs, Mesh)
}

// New returns a CGRA with an arbitrary topology.
func New(rows, cols, numRegs int, topo Topology) *CGRA {
	if rows <= 0 || cols <= 0 {
		panic("arch: array dimensions must be positive")
	}
	if numRegs < 0 {
		panic("arch: negative register file size")
	}
	c := &CGRA{Rows: rows, Cols: cols, NumRegs: numRegs, Topology: topo}
	c.buildAdjacency()
	return c
}

// topologyDeltas returns the neighbour offsets of a topology, in the fixed
// order that determines Neighbors ordering (and therefore every mapper's
// deterministic tie-breaks).
func topologyDeltas(t Topology) [][2]int {
	deltas := [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	switch t {
	case MeshPlus:
		deltas = append(deltas, [2]int{-1, -1}, [2]int{-1, 1}, [2]int{1, -1}, [2]int{1, 1})
	case OneHop:
		deltas = append(deltas, [2]int{-2, 0}, [2]int{2, 0}, [2]int{0, -2}, [2]int{0, 2})
	}
	return deltas
}

func (c *CGRA) buildAdjacency() {
	n := c.NumPEs()
	c.nomNeighbors = make([][]int, n)
	c.nomAdj = graph.NewBitsetSlab(n, n)
	deltas := topologyDeltas(c.Topology)
	for p := 0; p < n; p++ {
		r, col := c.RowOf(p), c.ColOf(p)
		c.nomAdj[p].Set(p)
		for _, d := range deltas {
			nr, nc := r+d[0], col+d[1]
			if c.Topology == Torus {
				nr = (nr + c.Rows) % c.Rows
				nc = (nc + c.Cols) % c.Cols
			}
			if nr < 0 || nr >= c.Rows || nc < 0 || nc >= c.Cols {
				continue
			}
			q := c.PEAt(nr, nc)
			if q == p {
				continue // degenerate torus dimension
			}
			if !c.nomAdj[p].Has(q) {
				c.nomNeighbors[p] = append(c.nomNeighbors[p], q)
				c.nomAdj[p].Set(q)
			}
		}
	}
	c.adj, c.neighbors, c.ownAdj = c.nomAdj, c.nomNeighbors, false
}

// setNominalLink adds (on) or removes (off) the nominal bidirectional link
// between distinct PEs p and q. Construction-time only (Desc.Compile): it
// must not be called once the array is in use, because nominal connectivity
// is immutable afterwards.
func (c *CGRA) setNominalLink(p, q int, on bool) {
	if on {
		if !c.nomAdj[p].Has(q) {
			c.nomAdj[p].Set(q)
			c.nomNeighbors[p] = append(c.nomNeighbors[p], q)
		}
		if !c.nomAdj[q].Has(p) {
			c.nomAdj[q].Set(p)
			c.nomNeighbors[q] = append(c.nomNeighbors[q], p)
		}
		return
	}
	c.nomAdj[p].Clear(q)
	c.nomAdj[q].Clear(p)
	c.nomNeighbors[p] = removePE(c.nomNeighbors[p], q)
	c.nomNeighbors[q] = removePE(c.nomNeighbors[q], p)
}

// ensureOwnAdjacency deep-copies the effective connectivity away from the
// nominal structures before the first topology mutation, so the nominal
// fabric stays intact for NominalConnected and fault validation.
func (c *CGRA) ensureOwnAdjacency() {
	if c.ownAdj {
		return
	}
	n := c.NumPEs()
	adj := graph.NewBitsetSlab(n, n)
	nbrs := make([][]int, n)
	for p := 0; p < n; p++ {
		adj[p].CopyFrom(c.adj[p])
		nbrs[p] = append([]int(nil), c.neighbors[p]...)
	}
	c.adj, c.neighbors, c.ownAdj = adj, nbrs, true
}

// NumPEs returns the number of processing elements.
func (c *CGRA) NumPEs() int { return c.Rows * c.Cols }

// PEAt returns the PE identifier at (row, col).
func (c *CGRA) PEAt(row, col int) int {
	if row < 0 || row >= c.Rows || col < 0 || col >= c.Cols {
		panic(fmt.Sprintf("arch: PE (%d,%d) out of range %dx%d", row, col, c.Rows, c.Cols))
	}
	return row*c.Cols + col
}

// RowOf returns the row of PE p.
func (c *CGRA) RowOf(p int) int { return p / c.Cols }

// ColOf returns the column of PE p.
func (c *CGRA) ColOf(p int) int { return p % c.Cols }

// Neighbors returns the PEs whose output register PE p can read (excluding p
// itself; every PE can always read its own output register). The slice is
// shared; callers must not modify it.
func (c *CGRA) Neighbors(p int) []int { return c.neighbors[p] }

// Connected reports whether PE q can read PE p's output register in the cycle
// after p produces: q is p itself or a topological neighbour. The relation is
// symmetric, Connected(p, q) == Connected(q, p), on every fabric: topologies
// add links in both directions, and ADL link/nolink edits, CutLink and
// DisablePE set and clear both directions together.
func (c *CGRA) Connected(p, q int) bool { return c.adj[p].Has(q) }

// AdjacencyRow exposes PE p's self-or-adjacent relation as a bitset for
// read-only bulk consumers (hashing, set intersection). Callers must not
// modify it.
func (c *CGRA) AdjacencyRow(p int) *graph.Bitset { return c.adj[p] }

// NominalConnected reports Connected on the fault-free fabric: the link set
// the architecture description built, before any DisablePE/CutLink. Fault
// validation uses it to decide which links exist to cut.
func (c *CGRA) NominalConnected(p, q int) bool { return c.nomAdj[p].Has(q) }

// RestrictPE marks PE p as supporting only the listed operation kinds,
// turning the array heterogeneous. Route is always permitted (any ALU can
// copy).
func (c *CGRA) RestrictPE(p int, kinds ...dfg.OpKind) {
	if c.caps == nil {
		c.caps = make([]map[dfg.OpKind]bool, c.NumPEs())
	}
	m := map[dfg.OpKind]bool{dfg.Route: true}
	for _, k := range kinds {
		m[k] = true
	}
	c.caps[p] = m
}

// Supports reports whether PE p's ALU can execute operation kind k. A broken
// PE supports nothing, including Route.
func (c *CGRA) Supports(p int, k dfg.OpKind) bool {
	if c.broken != nil && c.broken[p] {
		return false
	}
	if c.caps == nil || c.caps[p] == nil {
		return true
	}
	return c.caps[p][k]
}

// Homogeneous reports whether every PE supports every operation.
func (c *CGRA) Homogeneous() bool { return c.caps == nil && c.broken == nil }

// DisablePE marks PE p permanently broken: its ALU executes nothing and its
// output register and register file are unusable, so it is also severed from
// the mesh (no neighbour can read it, it can read no neighbour).
func (c *CGRA) DisablePE(p int) {
	c.checkPE(p)
	if c.broken == nil {
		c.broken = make([]bool, c.NumPEs())
	}
	if c.broken[p] {
		return
	}
	c.broken[p] = true
	c.faults++
	c.ensureOwnAdjacency()
	n := c.NumPEs()
	for q := 0; q < n; q++ {
		c.adj[p].Clear(q)
		c.adj[q].Clear(p)
		c.neighbors[q] = removePE(c.neighbors[q], p)
	}
	c.neighbors[p] = nil
}

// CutLink severs the mesh link between PEs p and q in both directions:
// neither output register remains readable by the other side. It errors when
// the two PEs were not connected to begin with.
func (c *CGRA) CutLink(p, q int) error {
	c.checkPE(p)
	c.checkPE(q)
	if p == q {
		return fmt.Errorf("arch: PE %d's self loop (its own output register) cannot be cut", p)
	}
	if !c.adj[p].Has(q) && !c.adj[q].Has(p) {
		return fmt.Errorf("arch: no link between PE %d and PE %d to cut", p, q)
	}
	c.ensureOwnAdjacency()
	c.adj[p].Clear(q)
	c.adj[q].Clear(p)
	c.neighbors[p] = removePE(c.neighbors[p], q)
	c.neighbors[q] = removePE(c.neighbors[q], p)
	c.faults++
	return nil
}

// LimitRegs caps PE p's usable rotating registers at k (stuck or partially
// failed register file). k must be in [0, NominalRegsAt(p)].
func (c *CGRA) LimitRegs(p, k int) {
	c.checkPE(p)
	if k < 0 || k > c.NominalRegsAt(p) {
		panic(fmt.Sprintf("arch: register limit %d outside [0,%d]", k, c.NominalRegsAt(p)))
	}
	if c.regCap == nil {
		c.regCap = make([]int, c.NumPEs())
		for i := range c.regCap {
			c.regCap[i] = c.NominalRegsAt(i)
		}
	}
	if c.regCap[p] != k {
		c.regCap[p] = k
		c.faults++
	}
}

// DisableRowBus marks row r's shared memory bus failed: no memory operation
// may issue anywhere on that row. On fabrics with a non-row bus scheme the
// fault still keys on the physical row: every PE of the row loses memory
// access, whichever group its bus bandwidth is accounted against.
func (c *CGRA) DisableRowBus(r int) {
	if r < 0 || r >= c.Rows {
		panic(fmt.Sprintf("arch: row %d out of range [0,%d)", r, c.Rows))
	}
	if c.deadRow == nil {
		c.deadRow = make([]bool, c.Rows)
	}
	if !c.deadRow[r] {
		c.deadRow[r] = true
		c.faults++
	}
}

// PEOk reports whether PE p's ALU is alive.
func (c *CGRA) PEOk(p int) bool { return c.broken == nil || !c.broken[p] }

// NominalRegsAt returns PE p's fault-free register-file size: the described
// per-PE value, or NumRegs on uniform arrays.
func (c *CGRA) NominalRegsAt(p int) int {
	if c.nomRegs == nil {
		return c.NumRegs
	}
	return c.nomRegs[p]
}

// RegsAt returns the number of usable rotating registers at PE p: the nominal
// size unless the file is limited by a fault, and 0 on a broken PE.
func (c *CGRA) RegsAt(p int) int {
	if !c.PEOk(p) {
		return 0
	}
	if c.regCap == nil {
		return c.NominalRegsAt(p)
	}
	return c.regCap[p]
}

// RowBusOK reports whether row r's shared memory bus is alive.
func (c *CGRA) RowBusOK(r int) bool { return c.deadRow == nil || !c.deadRow[r] }

// NumBusGroups returns how many memory bus groups the fabric has (Rows under
// the default per-row scheme).
func (c *CGRA) NumBusGroups() int {
	if c.busCap != nil {
		return len(c.busCap)
	}
	return c.Rows
}

// BusGroupOf returns the bus group PE p's memory operations are accounted
// against (the PE's row under the default scheme).
func (c *CGRA) BusGroupOf(p int) int {
	if c.busGroup != nil {
		return c.busGroup[p]
	}
	return c.RowOf(p)
}

// BusGroupCap returns how many memory operations group g admits per cycle
// (1 under the default scheme).
func (c *CGRA) BusGroupCap(g int) int {
	if c.busCap != nil {
		return c.busCap[g]
	}
	return 1
}

// TrivialBuses reports the paper's bus scheme — one bus per row, capacity 1 —
// under which pairwise conflict checks and the per-row MRRG bus nodes are
// exact as-is.
func (c *CGRA) TrivialBuses() bool { return c.busGroup == nil && c.busCap == nil }

// Fanout returns the link-bandwidth bound: the maximum number of remote PEs
// that may read one output register in the same cycle, or 0 for unlimited
// (the paper's model).
func (c *CGRA) Fanout() int { return c.fanout }

// MemPEOk reports whether PE p can issue a memory operation at all: the PE is
// alive, its row bus survives, and its bus group has nonzero bandwidth.
func (c *CGRA) MemPEOk(p int) bool {
	return c.PEOk(p) && c.RowBusOK(c.RowOf(p)) && c.BusGroupCap(c.BusGroupOf(p)) > 0
}

// Healthy reports whether the array carries no fault at all — the paper's
// pristine configuration, and the fast path every mapper preserves
// byte-identically. A described fabric with heterogeneous capabilities or
// bandwidth is still healthy; health tracks faults only.
func (c *CGRA) Healthy() bool { return c.faults == 0 }

// FaultCount returns the number of fault primitives applied to the array.
func (c *CGRA) FaultCount() int { return c.faults }

// UsablePEs returns the number of PEs whose ALU is alive.
func (c *CGRA) UsablePEs() int {
	if c.broken == nil {
		return c.NumPEs()
	}
	n := 0
	for p := 0; p < c.NumPEs(); p++ {
		if !c.broken[p] {
			n++
		}
	}
	return n
}

// UsableMemRows returns the number of rows that can still issue memory
// operations: a live bus plus at least one live PE on the row.
func (c *CGRA) UsableMemRows() int {
	if c.Healthy() {
		return c.Rows
	}
	rows := 0
	for r := 0; r < c.Rows; r++ {
		if !c.RowBusOK(r) {
			continue
		}
		for col := 0; col < c.Cols; col++ {
			if c.PEOk(c.PEAt(r, col)) {
				rows++
				break
			}
		}
	}
	return rows
}

// MemSlotCapacity returns how many memory operations the whole fabric can
// issue in one cycle: the sum of bus-group capacities over groups that still
// have a memory-capable PE. Under the default scheme this equals Rows when
// healthy and UsableMemRows when faulted.
func (c *CGRA) MemSlotCapacity() int {
	if c.TrivialBuses() {
		return c.UsableMemRows()
	}
	total := 0
	for g := 0; g < c.NumBusGroups(); g++ {
		cap := c.BusGroupCap(g)
		if cap == 0 {
			continue
		}
		for p := 0; p < c.NumPEs(); p++ {
			if c.BusGroupOf(p) == g && c.PEOk(p) && c.RowBusOK(c.RowOf(p)) {
				total += cap
				break
			}
		}
	}
	return total
}

// MIIResources returns the PE and memory-slot counts that resource-bound II
// calculations (dfg.MII) and scheduler limits should use: the nominal array
// when healthy, the usable counts when faulted. Both are floored at 1 so a
// fully-dead resource class still yields a finite bound — the mappers' own
// feasibility checks reject such arrays with a proper error instead.
func (c *CGRA) MIIResources() (pes, memSlots int) {
	if c.Healthy() && c.TrivialBuses() {
		return c.NumPEs(), c.Rows
	}
	pes, memSlots = c.UsablePEs(), c.MemSlotCapacity()
	if pes < 1 {
		pes = 1
	}
	if memSlots < 1 {
		memSlots = 1
	}
	return pes, memSlots
}

func (c *CGRA) checkPE(p int) {
	if p < 0 || p >= c.NumPEs() {
		panic(fmt.Sprintf("arch: PE %d out of range [0,%d)", p, c.NumPEs()))
	}
}

func removePE(list []int, p int) []int {
	out := list[:0]
	for _, q := range list {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

// String describes the array, e.g. "4x4 mesh, 4 regs/PE". Faulted arrays
// report the fault count.
func (c *CGRA) String() string {
	if c.faults > 0 {
		return fmt.Sprintf("%dx%d %s, %d regs/PE, %d faults", c.Rows, c.Cols, c.Topology, c.NumRegs, c.faults)
	}
	return fmt.Sprintf("%dx%d %s, %d regs/PE", c.Rows, c.Cols, c.Topology, c.NumRegs)
}

// Clone returns an independent copy (capability restrictions, description
// state, and fault state included). Immutable nominal structures are shared;
// mutable state is deep-copied.
func (c *CGRA) Clone() *CGRA {
	d := *c
	if c.caps != nil {
		d.caps = make([]map[dfg.OpKind]bool, len(c.caps))
		for i, m := range c.caps {
			if m == nil {
				continue
			}
			d.caps[i] = make(map[dfg.OpKind]bool, len(m))
			for k, v := range m {
				d.caps[i][k] = v
			}
		}
	}
	if c.ownAdj {
		// Adjacency reflects severed links and broken PEs: deep-copy rather
		// than rebuild, so cut links survive cloning.
		n := c.NumPEs()
		d.adj = graph.NewBitsetSlab(n, n)
		d.neighbors = make([][]int, n)
		for p := 0; p < n; p++ {
			d.adj[p].CopyFrom(c.adj[p])
			d.neighbors[p] = append([]int(nil), c.neighbors[p]...)
		}
	}
	if c.broken != nil {
		d.broken = append([]bool(nil), c.broken...)
	}
	if c.regCap != nil {
		d.regCap = append([]int(nil), c.regCap...)
	}
	if c.deadRow != nil {
		d.deadRow = append([]bool(nil), c.deadRow...)
	}
	return &d
}
