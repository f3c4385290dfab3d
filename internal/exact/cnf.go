package exact

import (
	"slices"

	"regimap/internal/sat"
)

// ml is a "maybe literal": a SAT literal or a constant. Window boundaries
// make many order-encoding literals constant (T >= Lo is always true,
// T >= Hi+1 always false), and threading constants through the clause
// builder keeps every emitter uniform instead of special-casing edges of
// every window.
type ml struct {
	l sat.Lit
	k int8 // 0: variable literal, +1: constant true, -1: constant false
}

var (
	mTrue  = ml{k: 1}
	mFalse = ml{k: -1}
)

func mv(l sat.Lit) ml { return ml{l: l} }

func mnot(m ml) ml {
	if m.k != 0 {
		return ml{k: -m.k}
	}
	return ml{l: m.l.Not()}
}

// clause emits the disjunction of ms: constant-true members satisfy it
// (nothing emitted), constant-false members are dropped, and an all-false
// clause marks the instance unsatisfiable (sat.AddClause of zero literals).
func (p *problem) clause(ms ...ml) {
	p.scratch = p.scratch[:0]
	for _, m := range ms {
		switch m.k {
		case 1:
			return
		case 0:
			p.scratch = append(p.scratch, m.l)
		}
	}
	p.s.AddClause(p.scratch...)
}

// atMostOne constrains at most one of lits to be true: pairwise for short
// lists, sequential counter beyond that.
func (p *problem) atMostOne(lits []sat.Lit) {
	if len(lits) <= 1 {
		return
	}
	if len(lits) <= 12 {
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				p.s.AddClause(lits[i].Not(), lits[j].Not())
			}
		}
		return
	}
	p.atMostK(lits, 1)
}

// atMostK constrains sum(lits) <= k with the Sinz sequential counter:
// s[i][j] means "at least j+1 of the first i+1 inputs are true". Only the
// previous column is read, so the counter alternates between the problem's
// two column buffers.
func (p *problem) atMostK(lits []sat.Lit, k int) {
	if k < 0 {
		k = 0
	}
	if len(lits) <= k {
		return
	}
	if k == 0 {
		for _, l := range lits {
			p.s.AddClause(l.Not())
		}
		return
	}
	var prev []sat.Lit
	p.colA, p.colB = slices.Grow(p.colA[:0], k)[:k], slices.Grow(p.colB[:0], k)[:k]
	for i, x := range lits {
		if i == len(lits)-1 {
			// The last counter column is only needed for the overflow clause.
			if prev != nil {
				p.s.AddClause(x.Not(), prev[k-1].Not())
			}
			return
		}
		cur := p.colA
		if i%2 == 1 {
			cur = p.colB
		}
		for j := range cur {
			cur[j] = sat.Pos(p.s.NewVar())
		}
		p.s.AddClause(x.Not(), cur[0])
		if prev != nil {
			for j := 0; j < k; j++ {
				p.s.AddClause(prev[j].Not(), cur[j])
			}
			for j := 1; j < k; j++ {
				p.s.AddClause(x.Not(), prev[j-1].Not(), cur[j])
			}
			p.s.AddClause(x.Not(), prev[k-1].Not())
		}
		prev = cur
	}
}
