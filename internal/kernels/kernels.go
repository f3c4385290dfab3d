// Package kernels provides the benchmark loop suite standing in for the
// paper's multimedia/DSP applications and SPEC2006 kernels (see DESIGN.md §3
// for the substitution argument). Each kernel is a hand-modelled data-flow
// graph matching the published structural shape of its namesake inner loop:
// operation mix, fan-in/out, memory-operation density, and recurrence cycles.
//
// Kernels whose MII is limited by resources on the paper's 4x4 array are the
// "res-bounded" group; kernels limited by a dependence recurrence are
// "rec-bounded" (paper Section 6.1). The classification is computed, not
// asserted — see Classify.
package kernels

import (
	"fmt"
	"sort"

	"regimap/internal/dfg"
)

// Kernel is one benchmark loop.
type Kernel struct {
	Name        string
	Suite       string // "dsp" (multimedia/DSP) or "spec" (SPEC2006-like)
	Description string
	Build       func() *dfg.DFG
}

// Boundedness classifies a loop on a given array.
type Boundedness int

// Loop groups of the paper's Section 6.1.
const (
	ResBounded Boundedness = iota
	RecBounded
)

// String names the group.
func (b Boundedness) String() string {
	if b == ResBounded {
		return "res-bounded"
	}
	return "rec-bounded"
}

// Classify returns the paper's loop grouping for an array with numPEs
// processing elements in rows rows.
func Classify(d *dfg.DFG, numPEs, rows int) Boundedness {
	if d.ResBounded(numPEs, rows) {
		return ResBounded
	}
	return RecBounded
}

var registry []Kernel

func register(name, suite, description string, build func() *dfg.DFG) {
	registry = append(registry, Kernel{Name: name, Suite: suite, Description: description, Build: build})
}

// All returns every kernel, sorted by name.
func All() []Kernel {
	out := append([]Kernel(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the named kernel.
func ByName(name string) (Kernel, bool) {
	for _, k := range registry {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// Names returns all kernel names, sorted.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, k := range all {
		names[i] = k.Name
	}
	return names
}

// --- shared construction helpers -----------------------------------------

// adderTree reduces values pairwise with adds, returning the root.
func adderTree(b *dfg.Builder, name string, vals []int) int {
	level := 0
	for len(vals) > 1 {
		var next []int
		for i := 0; i+1 < len(vals); i += 2 {
			next = append(next, b.Op(dfg.Add, fmt.Sprintf("%s_l%d_%d", name, level, i/2), vals[i], vals[i+1]))
		}
		if len(vals)%2 == 1 {
			next = append(next, vals[len(vals)-1])
		}
		vals = next
		level++
	}
	return vals[0]
}

// clamp limits v into [lo, hi] with a max-then-min pair.
func clamp(b *dfg.Builder, name string, v int, lo, hi int64) int {
	lowered := b.Op(dfg.Max, name+"_lo", v, b.Const(name+"_cl", lo))
	return b.Op(dfg.Min, name+"_hi", lowered, b.Const(name+"_ch", hi))
}

// mulConst multiplies v by an immediate coefficient.
func mulConst(b *dfg.Builder, name string, v int, coef int64) int {
	return b.Op(dfg.Mul, name, v, b.Const(name+"_c", coef))
}
