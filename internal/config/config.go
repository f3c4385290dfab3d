// Package config is the backend of the flow: it turns an abstract mapping
// (operation -> PE, cycle) into the concrete kernel configuration a CGRA
// executes — per-PE instruction words with operand routing selectors and
// rotating-register indices — and provides a machine-level executor that
// runs those words, completing the compiler story the paper assumes
// ("CGRA has enough memory to hold the instructions... instructions within
// the kernel repeat every II cycles").
//
// # Rotating register binding
//
// The paper assumes rotating register files: each file shifts by one
// position at every kernel-iteration boundary, so the copy of a value
// written d iterations ago is addressed at a fixed logical offset (+d) in
// the instruction word. A value therefore occupies a *window* of
// consecutive logical registers — one slot per iteration boundary its
// lifetime crosses — and two values never collide as long as their windows
// are disjoint. The emitter chooses each file's rotation phase to minimize
// the total window size, binds windows left to right, and reports a
// precise error when a file is too small.
package config

import (
	"fmt"
	"strings"

	"regimap/internal/dfg"
	"regimap/internal/mapping"
)

// SrcKind selects where an operand comes from.
type SrcKind int

// Operand sources of an instruction word.
const (
	// SrcNone marks an unused operand slot.
	SrcNone SrcKind = iota
	// SrcSelf reads the PE's own output register (the producer executed
	// here one cycle earlier).
	SrcSelf
	// SrcNeighbor reads a neighbouring PE's output register; Dx/Dy give the
	// mesh offset of that neighbour.
	SrcNeighbor
	// SrcRegister reads the PE's rotating register file at logical index
	// Reg.
	SrcRegister
)

// String names the source kind.
func (k SrcKind) String() string {
	switch k {
	case SrcNone:
		return "none"
	case SrcSelf:
		return "self"
	case SrcNeighbor:
		return "nbr"
	case SrcRegister:
		return "reg"
	default:
		return fmt.Sprintf("SrcKind(%d)", int(k))
	}
}

// Operand is one operand selector of an instruction word.
type Operand struct {
	Kind   SrcKind
	Dx, Dy int // SrcNeighbor: mesh offset of the producer PE
	Reg    int // SrcRegister: logical rotating-register index
	// Dist is the inter-iteration distance of the dependence (metadata the
	// executor uses to substitute the defined-as-zero pre-loop values during
	// the prologue; real hardware would predicate the ramp-up instead).
	Dist int
}

// Instr is one PE instruction word (one modulo slot of one PE).
type Instr struct {
	Op       dfg.OpKind
	Node     int // originating DFG operation (metadata; drives Input/Load streams)
	Imm      int64
	Operands []Operand
	// WriteReg is the logical rotating-register index the result is parked
	// at (-1: the result only passes through the output register).
	WriteReg int
	// Start is the first cycle this slot fires (the software-pipeline
	// prologue ramp); it fires every II cycles from there.
	Start int
}

// PEConfig is one PE's program: II instruction slots plus its register-file
// rotation phase.
type PEConfig struct {
	Slots []*Instr // length II; nil = nop
	Phase int      // rotation boundary: the file rotates when cycle % II == Phase
	Used  int      // logical registers consumed
}

// Program is a complete kernel configuration.
type Program struct {
	Rows, Cols int
	NumRegs    int
	II         int
	PEs        []PEConfig
}

// Emit lowers a validated mapping into a kernel configuration. The mapping's
// DFG, array and II are embedded in the result; Emit fails if the mapping is
// invalid or a register file cannot hold its rotating windows (see the
// package comment — window demand can exceed the mapper's per-copy
// accounting by one slot per value when a lifetime straddles a rotation
// boundary).
func Emit(m *mapping.Mapping) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	d := m.D
	prog := &Program{
		Rows:    m.C.Rows,
		Cols:    m.C.Cols,
		NumRegs: m.C.NumRegs,
		II:      m.II,
		PEs:     make([]PEConfig, m.C.NumPEs()),
	}
	for p := range prog.PEs {
		prog.PEs[p].Slots = make([]*Instr, m.II)
	}

	// Bind registers per PE: pick the rotation phase minimizing the total
	// window demand, then assign windows left to right.
	writeReg := make([]int, d.N()) // logical base index per producer (-1: none)
	for v := range writeReg {
		writeReg[v] = -1
	}
	for p := 0; p < m.C.NumPEs(); p++ {
		if err := bindPE(m, p, &prog.PEs[p], writeReg); err != nil {
			return nil, err
		}
	}

	// Emit instruction words.
	for v, nd := range d.Nodes {
		pe := m.PE[v]
		slot := m.Slot(v)
		in := &Instr{
			Op:       nd.Kind,
			Node:     v,
			Imm:      nd.Value,
			WriteReg: writeReg[v],
			Start:    m.Time[v],
		}
		arity := len(d.InEdges(v))
		in.Operands = make([]Operand, arity)
		for _, ei := range d.InEdges(v) {
			e := d.Edges[ei]
			op, err := operandFor(m, prog, writeReg, e)
			if err != nil {
				return nil, err
			}
			op.Dist = e.Dist
			in.Operands[e.Port] = op
		}
		prog.PEs[pe].Slots[slot] = in
	}
	return prog, nil
}

// operandFor encodes how consumer e.To fetches the value of e.From.
func operandFor(m *mapping.Mapping, prog *Program, writeReg []int, e dfg.Edge) (Operand, error) {
	span := m.Span(e)
	prodPE, consPE := m.PE[e.From], m.PE[e.To]
	if span == 1 {
		if prodPE == consPE {
			return Operand{Kind: SrcSelf}, nil
		}
		return Operand{
			Kind: SrcNeighbor,
			Dx:   m.C.ColOf(prodPE) - m.C.ColOf(consPE),
			Dy:   m.C.RowOf(prodPE) - m.C.RowOf(consPE),
		}, nil
	}
	// Register-carried: the consumer reads the producer's window at offset
	// d = rotation boundaries crossed since the copy was written.
	base := writeReg[e.From]
	if base < 0 {
		return Operand{}, fmt.Errorf("config: internal error, %s carried but unbound", m.D.Nodes[e.From].Name)
	}
	d := crossings(m, prog.PEs[prodPE].Phase, e)
	return Operand{Kind: SrcRegister, Reg: base + d}, nil
}

// crossings counts the rotation boundaries between a copy's write and this
// consumer's read: the fixed logical offset the instruction addresses.
func crossings(m *mapping.Mapping, phase int, e dfg.Edge) int {
	write := m.Time[e.From] + 1 // the value reaches the file one cycle after execution
	read := m.Time[e.To] + m.II*e.Dist
	return boundaries(write, read, m.II, phase)
}

// boundaries counts t in (write, read] with t % II == phase.
func boundaries(write, read, ii, phase int) int {
	count := func(t int) int {
		// boundaries in [0, t]: floor((t - phase)/II) + 1 for t >= phase.
		if t < phase {
			return 0
		}
		return (t-phase)/ii + 1
	}
	return count(read) - count(write)
}

// bindPE chooses PE p's rotation phase and assigns register windows.
func bindPE(m *mapping.Mapping, p int, cfg *PEConfig, writeReg []int) error {
	d := m.D
	type valueDemand struct {
		op     int
		window int
	}
	bestPhase, bestTotal := 0, -1
	var bestDemands []valueDemand
	for phase := 0; phase < m.II; phase++ {
		var demands []valueDemand
		total := 0
		for v := range d.Nodes {
			if m.PE[v] != p {
				continue
			}
			window := 0
			for _, ei := range d.OutEdges(v) {
				e := d.Edges[ei]
				if m.Span(e) <= 1 {
					continue
				}
				if w := boundaries(m.Time[v]+1, m.Time[e.To]+m.II*e.Dist, m.II, phase) + 1; w > window {
					window = w
				}
			}
			if window > 0 {
				demands = append(demands, valueDemand{op: v, window: window})
				total += window
			}
		}
		if bestTotal < 0 || total < bestTotal {
			bestPhase, bestTotal, bestDemands = phase, total, demands
		}
	}
	if bestTotal > m.C.NumRegs {
		return fmt.Errorf("config: PE %d needs %d rotating-register slots, file holds %d (windows straddling rotation boundaries cost one extra slot; give the array %d registers or re-map)",
			p, bestTotal, m.C.NumRegs, bestTotal)
	}
	cfg.Phase = bestPhase
	cfg.Used = bestTotal
	next := 0
	for _, dem := range bestDemands {
		writeReg[dem.op] = next
		next += dem.window
	}
	return nil
}

// String renders the configuration as a readable kernel listing.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel configuration: %dx%d CGRA, %d regs/PE, II=%d\n", p.Rows, p.Cols, p.NumRegs, p.II)
	for pe := range p.PEs {
		cfg := &p.PEs[pe]
		empty := true
		for _, in := range cfg.Slots {
			if in != nil {
				empty = false
			}
		}
		if empty {
			continue
		}
		fmt.Fprintf(&b, "PE %d (row %d, col %d), phase %d, %d regs:\n", pe, pe/p.Cols, pe%p.Cols, cfg.Phase, cfg.Used)
		for s, in := range cfg.Slots {
			if in == nil {
				continue
			}
			fmt.Fprintf(&b, "  [%d] %-6s", s, in.Op)
			for _, op := range in.Operands {
				switch op.Kind {
				case SrcSelf:
					b.WriteString(" self")
				case SrcNeighbor:
					fmt.Fprintf(&b, " nbr(%+d,%+d)", op.Dx, op.Dy)
				case SrcRegister:
					fmt.Fprintf(&b, " r%d", op.Reg)
				}
			}
			if in.Op == dfg.Const {
				fmt.Fprintf(&b, " #%d", in.Imm)
			}
			if in.WriteReg >= 0 {
				fmt.Fprintf(&b, " -> r%d", in.WriteReg)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
