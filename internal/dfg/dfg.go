// Package dfg models loop bodies as data-flow graphs: typed operation nodes
// connected by dependence edges that carry an inter-iteration distance. It
// provides the analyses the mappers need — validation, ASAP/ALAP windows,
// height priorities, and the II lower bounds ResMII / RecMII / MII — plus a
// reference evaluator used by the functional simulator.
//
// Terminology follows Rau's iterative modulo scheduling and the REGIMap paper:
// an edge (i, j, dist) means operation j of iteration k consumes the value
// produced by operation i of iteration k-dist; dist 0 is an ordinary
// intra-iteration dependence.
package dfg

import (
	"fmt"
	"strings"

	"regimap/internal/graph"
)

// OpKind enumerates the operations a PE's ALU can execute. All operations
// have unit latency, matching the paper's CGRA model.
type OpKind int

// Operation kinds. Route is an explicit pass-through (copy) used when a
// mapper inserts routing nodes to carry a value through a PE.
const (
	Const   OpKind = iota // immediate operand, no inputs
	Input                 // loop live-in (modelled as a deterministic stream)
	Counter               // the loop induction variable: value = iteration index
	Add
	Sub
	Mul
	And
	Or
	Xor
	Shl
	Shr
	Min
	Max
	Abs
	Neg
	Not
	CmpLT // 1 if a < b else 0
	CmpEQ // 1 if a == b else 0
	Select
	Route // copy: out = in
	Load  // memory read; one input: address
	Store // memory write; two inputs: address, value; no output
	numKinds
)

// NumKinds is the number of defined operation kinds, for consumers that
// enumerate the full instruction set (capability classes, fingerprints).
const NumKinds = int(numKinds)

var kindInfo = [numKinds]struct {
	name  string
	arity int // -1 means variadic
	mem   bool
}{
	Const:   {"const", 0, false},
	Input:   {"input", 0, false},
	Counter: {"counter", 0, false},
	Add:     {"add", 2, false},
	Sub:     {"sub", 2, false},
	Mul:     {"mul", 2, false},
	And:     {"and", 2, false},
	Or:      {"or", 2, false},
	Xor:     {"xor", 2, false},
	Shl:     {"shl", 2, false},
	Shr:     {"shr", 2, false},
	Min:     {"min", 2, false},
	Max:     {"max", 2, false},
	Abs:     {"abs", 1, false},
	Neg:     {"neg", 1, false},
	Not:     {"not", 1, false},
	CmpLT:   {"cmplt", 2, false},
	CmpEQ:   {"cmpeq", 2, false},
	Select:  {"select", 3, false},
	Route:   {"route", 1, false},
	Load:    {"load", 1, true},
	Store:   {"store", 2, true},
}

// String returns the mnemonic of the kind.
func (k OpKind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return kindInfo[k].name
}

// Arity returns the number of operands the kind expects, or -1 if variadic.
func (k OpKind) Arity() int { return kindInfo[k].arity }

// IsMem reports whether the kind accesses the data memory and therefore
// occupies a row bus slot.
func (k OpKind) IsMem() bool { return kindInfo[k].mem }

// Latency returns the operation latency in cycles. The paper's CGRA executes
// every operation in a single cycle.
func (k OpKind) Latency() int { return 1 }

// Node is one operation of the loop body.
type Node struct {
	ID    int
	Name  string
	Kind  OpKind
	Value int64 // immediate for Const; ignored otherwise
}

// Edge is a data dependence. Port is the operand position of To that this
// edge feeds; Dist is the inter-iteration distance (0 = same iteration).
type Edge struct {
	From, To int
	Port     int
	Dist     int
}

// DFG is an immutable-by-convention data-flow graph. Construct one with a
// Builder; mutate only via the documented helpers (Clone, InsertRoute).
type DFG struct {
	Name  string
	Nodes []Node
	Edges []Edge

	out [][]int // edge indices leaving each node
	in  [][]int // edge indices entering each node

	// journal records InsertRoute undo information once Mark has been called,
	// so Rollback can rewind the graph without a fresh Clone per attempt (the
	// EMS placer's arena reuse). nil until the first Mark.
	journal []routeUndo
	// routeNames caches InsertRoute node names by (id, producer name): after
	// a Rollback the same id is often re-minted over the same producer, so
	// the steady-state mark/insert/rollback cycle stays allocation-free. The
	// key carries the producer's name, not its id — a route node re-minted
	// at the same id can itself be named differently across attempts.
	routeNames map[nameKey]string
}

type nameKey struct {
	id   int
	from string
}

// routeUndo is the inverse of one InsertRoute call: the split edge's index
// and original value, plus where that index sat inside in[old.To] so the
// adjacency list order (ascending edge index, exactly what rebuildAdj
// produces) can be restored in place.
type routeUndo struct {
	ei    int
	old   Edge
	toPos int
}

// rebuildAdj recomputes the adjacency indices after structural edits.
func (d *DFG) rebuildAdj() {
	d.out = make([][]int, len(d.Nodes))
	d.in = make([][]int, len(d.Nodes))
	for ei, e := range d.Edges {
		d.out[e.From] = append(d.out[e.From], ei)
		d.in[e.To] = append(d.in[e.To], ei)
	}
}

// N returns the number of operations.
func (d *DFG) N() int { return len(d.Nodes) }

// OutEdges returns the indices into d.Edges of edges leaving node v.
func (d *DFG) OutEdges(v int) []int { return d.out[v] }

// InEdges returns the indices into d.Edges of edges entering node v.
func (d *DFG) InEdges(v int) []int { return d.in[v] }

// MemOps returns the number of memory operations (loads and stores).
func (d *DFG) MemOps() int {
	n := 0
	for _, nd := range d.Nodes {
		if nd.Kind.IsMem() {
			n++
		}
	}
	return n
}

// Validate checks structural well-formedness: edge endpoints in range,
// non-negative distances, operand ports filled exactly once per node, and the
// intra-iteration subgraph acyclic (a cycle with total distance zero can never
// be scheduled).
func (d *DFG) Validate() error {
	n := len(d.Nodes)
	for i, nd := range d.Nodes {
		if nd.ID != i {
			return fmt.Errorf("dfg %s: node %d has ID %d", d.Name, i, nd.ID)
		}
		if nd.Kind < 0 || nd.Kind >= numKinds {
			return fmt.Errorf("dfg %s: node %d has invalid kind %d", d.Name, i, nd.Kind)
		}
	}
	ports := make([]map[int]bool, n)
	for i := range ports {
		ports[i] = map[int]bool{}
	}
	intra := graph.New(n)
	for ei, e := range d.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("dfg %s: edge %d endpoint out of range", d.Name, ei)
		}
		if e.Dist < 0 {
			return fmt.Errorf("dfg %s: edge %d has negative distance %d", d.Name, ei, e.Dist)
		}
		if d.Nodes[e.From].Kind == Store {
			return fmt.Errorf("dfg %s: edge %d sources a store (stores produce no value)", d.Name, ei)
		}
		if e.Port < 0 {
			return fmt.Errorf("dfg %s: edge %d has negative port", d.Name, ei)
		}
		if ports[e.To][e.Port] {
			return fmt.Errorf("dfg %s: node %s port %d fed twice", d.Name, d.Nodes[e.To].Name, e.Port)
		}
		ports[e.To][e.Port] = true
		if e.Dist == 0 {
			intra.AddEdge(e.From, e.To)
		}
	}
	for i, nd := range d.Nodes {
		want := nd.Kind.Arity()
		if want < 0 {
			continue
		}
		if got := len(ports[i]); got != want {
			return fmt.Errorf("dfg %s: node %s (%s) has %d operands, want %d",
				d.Name, nd.Name, nd.Kind, got, want)
		}
		for p := 0; p < want; p++ {
			if !ports[i][p] {
				return fmt.Errorf("dfg %s: node %s missing operand port %d", d.Name, nd.Name, p)
			}
		}
	}
	if intra.HasCycle() {
		return fmt.Errorf("dfg %s: intra-iteration dependence cycle (distance-0 cycle)", d.Name)
	}
	return nil
}

// Clone returns a deep copy that can be modified independently.
func (d *DFG) Clone() *DFG {
	c := &DFG{
		Name:  d.Name,
		Nodes: append([]Node(nil), d.Nodes...),
		Edges: append([]Edge(nil), d.Edges...),
	}
	c.rebuildAdj()
	return c
}

// InsertRoute splits edge index ei by inserting a Route node: the original
// producer feeds the new node with the edge's full distance and the new node
// feeds the original consumer with distance 0. It returns the new node's ID.
// This is the "insert extra routing nodes" relaxation from the paper's
// rescheduling step.
//
// The adjacency indices are maintained incrementally but land exactly where
// rebuildAdj would put them: out[From] keeps edge ei (it now targets the
// route), in[To] loses ei and gains the appended edge's index at the end
// (the new index is the largest, so ascending order is preserved), and the
// route node's single in/out lists are trivial. TestInsertRouteMatchesRebuild
// pins the equivalence.
func (d *DFG) InsertRoute(ei int) int {
	e := d.Edges[ei]
	id := len(d.Nodes)
	d.Nodes = append(d.Nodes, Node{
		ID:   id,
		Name: d.routeName(id, e.From),
		Kind: Route,
	})
	newIdx := len(d.Edges)
	d.Edges[ei] = Edge{From: e.From, To: id, Port: 0, Dist: e.Dist}
	d.Edges = append(d.Edges, Edge{From: id, To: e.To, Port: e.Port, Dist: 0})

	toPos := -1
	inTo := d.in[e.To]
	for i, idx := range inTo {
		if idx == ei {
			toPos = i
			break
		}
	}
	if toPos < 0 {
		panic("dfg: InsertRoute on an edge missing from its consumer's adjacency")
	}
	d.in[e.To] = append(inTo[:toPos], inTo[toPos+1:]...)
	d.in[e.To] = append(d.in[e.To], newIdx)
	// Grow the per-node lists, reusing slot capacity left behind by Rollback
	// so repeated attempts stop allocating.
	d.out = extendAdj(d.out, id)
	d.in = extendAdj(d.in, id)
	d.out[id] = append(d.out[id][:0], newIdx)
	d.in[id] = append(d.in[id][:0], ei)

	if d.journal != nil {
		d.journal = append(d.journal, routeUndo{ei: ei, old: e, toPos: toPos})
	}
	return id
}

// routeName formats a route node's name, memoizing by (id, producer) so that
// re-minting the same id after a Rollback does not allocate. The produced
// string is byte-identical to the direct Sprintf — node names end up in
// mapping output, which the golden suite pins.
func (d *DFG) routeName(id, from int) string {
	key := nameKey{id, d.Nodes[from].Name}
	if name, ok := d.routeNames[key]; ok {
		return name
	}
	name := fmt.Sprintf("rt%d_%s", id, d.Nodes[from].Name)
	if d.routeNames == nil {
		d.routeNames = make(map[nameKey]string)
	}
	d.routeNames[key] = name
	return name
}

// extendAdj grows an adjacency list to cover node id, preferring to re-expose
// capacity truncated by a Rollback (the slot then still holds its old slice,
// whose backing array the caller reuses) over appending.
func extendAdj(adj [][]int, id int) [][]int {
	if id < cap(adj) {
		return adj[:id+1]
	}
	return append(adj, nil)
}

// Mark checkpoints the graph for Rollback and enables undo journaling of
// InsertRoute from here on. Marks nest: roll back to any outstanding mark in
// LIFO order. Helpers that rebuild the adjacency wholesale (SplitFanout,
// Duplicate) are not journaled — calling them with a mark outstanding panics
// rather than silently corrupting a later Rollback.
type Mark struct {
	nodes, edges, journal int
}

// Mark returns a checkpoint Rollback can rewind to. The first Mark on a
// graph switches InsertRoute into journaling mode.
func (d *DFG) Mark() Mark {
	if d.journal == nil {
		d.journal = make([]routeUndo, 0, 16)
	}
	return Mark{nodes: len(d.Nodes), edges: len(d.Edges), journal: len(d.journal)}
}

// Rollback rewinds every InsertRoute performed since the mark was taken,
// restoring nodes, edges, and adjacency to their exact prior state. The EMS
// placer uses it to reuse one working clone across II attempts instead of
// re-cloning the kernel per attempt.
func (d *DFG) Rollback(m Mark) {
	if m.journal > len(d.journal) || m.nodes > len(d.Nodes) || m.edges > len(d.Edges) {
		panic("dfg: Rollback to a mark from the graph's future")
	}
	for j := len(d.journal) - 1; j >= m.journal; j-- {
		u := d.journal[j]
		e := u.old
		// Undo in[To]: drop the appended new-edge index, reinsert ei at its
		// original position.
		inTo := d.in[e.To]
		inTo = inTo[:len(inTo)-1]
		inTo = append(inTo, 0)
		copy(inTo[u.toPos+1:], inTo[u.toPos:])
		inTo[u.toPos] = u.ei
		d.in[e.To] = inTo
		d.Edges[u.ei] = e
	}
	d.journal = d.journal[:m.journal]
	d.Nodes = d.Nodes[:m.nodes]
	d.Edges = d.Edges[:m.edges]
	d.out = d.out[:m.nodes]
	d.in = d.in[:m.nodes]
}

// checkNotJournaling rejects whole-adjacency rebuilds on a graph that has
// outstanding Mark state: rebuildAdj cannot be journaled, so a later Rollback
// would silently corrupt the adjacency.
func (d *DFG) checkNotJournaling(op string) {
	if d.journal != nil {
		panic("dfg: " + op + " on a graph with Mark/Rollback journaling enabled")
	}
}

// SplitFanout inserts a Route node fed by v and re-points the given outgoing
// edges of v (indices into d.Edges, all originating at v) to originate from
// the route instead. The route copies v's value one cycle later, so a high
// fan-out value can be distributed as a tree — the transformation behind the
// paper's path sharing. It returns the new node's ID.
func (d *DFG) SplitFanout(v int, edgeIdxs []int) int {
	d.checkNotJournaling("SplitFanout")
	id := len(d.Nodes)
	d.Nodes = append(d.Nodes, Node{
		ID:   id,
		Name: fmt.Sprintf("fan%d_%s", id, d.Nodes[v].Name),
		Kind: Route,
	})
	for _, ei := range edgeIdxs {
		e := d.Edges[ei]
		if e.From != v {
			panic(fmt.Sprintf("dfg: SplitFanout edge %d does not originate at %s", ei, d.Nodes[v].Name))
		}
		d.Edges[ei] = Edge{From: id, To: e.To, Port: e.Port, Dist: e.Dist}
	}
	d.Edges = append(d.Edges, Edge{From: v, To: id, Port: 0, Dist: 0})
	d.rebuildAdj()
	return id
}

// Duplicate clones operation v (recomputation, Hamzeh et al. EPIMap): the
// clone receives copies of all of v's input edges and takes over the given
// outgoing edges of v. The paper's problem formulation explicitly allows an
// operation to be mapped to multiple PEs; cloning the node expresses that in
// the one-PE-per-node heuristic. It returns the clone's ID.
func (d *DFG) Duplicate(v int, edgeIdxs []int) int {
	d.checkNotJournaling("Duplicate")
	id := len(d.Nodes)
	src := d.Nodes[v]
	d.Nodes = append(d.Nodes, Node{
		ID:    id,
		Name:  fmt.Sprintf("dup%d_%s", id, src.Name),
		Kind:  src.Kind,
		Value: src.Value,
	})
	for _, ei := range append([]int(nil), d.in[v]...) {
		e := d.Edges[ei]
		d.Edges = append(d.Edges, Edge{From: e.From, To: id, Port: e.Port, Dist: e.Dist})
	}
	for _, ei := range edgeIdxs {
		e := d.Edges[ei]
		if e.From != v {
			panic(fmt.Sprintf("dfg: Duplicate edge %d does not originate at %s", ei, src.Name))
		}
		d.Edges[ei] = Edge{From: id, To: e.To, Port: e.Port, Dist: e.Dist}
	}
	d.rebuildAdj()
	return id
}

// IntraGraph returns the distance-0 dependence structure as a plain digraph.
func (d *DFG) IntraGraph() *graph.Digraph {
	g := graph.New(len(d.Nodes))
	for _, e := range d.Edges {
		if e.Dist == 0 {
			g.AddEdge(e.From, e.To)
		}
	}
	return g
}

// DOT renders the DFG in Graphviz syntax; inter-iteration edges are dashed
// and labelled with their distance.
func (d *DFG) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", d.Name)
	for _, nd := range d.Nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%s\"];\n", nd.ID, nd.Name, nd.Kind)
	}
	for _, e := range d.Edges {
		if e.Dist > 0 {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed,label=\"%d\"];\n", e.From, e.To, e.Dist)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Summary returns a one-line human description: name, op count, memory ops,
// and edge count.
func (d *DFG) Summary() string {
	return fmt.Sprintf("%s: %d ops (%d mem), %d edges", d.Name, d.N(), d.MemOps(), len(d.Edges))
}

// Builder constructs DFGs with a fluent, panic-on-misuse API; kernels are
// built once at start-up so panics surface programming errors immediately.
type Builder struct {
	d    *DFG
	errs []string
}

// NewBuilder starts a DFG with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{d: &DFG{Name: name}}
}

// Const adds an immediate node.
func (b *Builder) Const(name string, v int64) int {
	return b.raw(name, Const, v)
}

// Input adds a live-in node (a value stream entering the loop).
func (b *Builder) Input(name string) int {
	return b.raw(name, Input, 0)
}

// Counter adds the loop induction variable (value = iteration index).
func (b *Builder) Counter(name string) int {
	return b.raw(name, Counter, 0)
}

// Op adds an operation whose intra-iteration operands are the given nodes, in
// port order. Recurrence operands are attached afterwards with EdgeDist.
func (b *Builder) Op(kind OpKind, name string, operands ...int) int {
	id := b.raw(name, kind, 0)
	for port, from := range operands {
		b.edge(from, id, port, 0)
	}
	return id
}

// EdgeDist attaches a dependence with inter-iteration distance dist feeding
// the given operand port of to.
func (b *Builder) EdgeDist(from, to, port, dist int) {
	b.edge(from, to, port, dist)
}

func (b *Builder) raw(name string, kind OpKind, v int64) int {
	id := len(b.d.Nodes)
	b.d.Nodes = append(b.d.Nodes, Node{ID: id, Name: name, Kind: kind, Value: v})
	return id
}

func (b *Builder) edge(from, to, port, dist int) {
	b.d.Edges = append(b.d.Edges, Edge{From: from, To: to, Port: port, Dist: dist})
}

// Build finalizes the DFG, validating it. It panics on a malformed graph;
// kernels are static program data, so this is a programmer error.
func (b *Builder) Build() *DFG {
	b.d.rebuildAdj()
	if err := b.d.Validate(); err != nil {
		panic("dfg: " + err.Error())
	}
	return b.d
}
