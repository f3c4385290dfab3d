// Package sat is a from-scratch CDCL satisfiability solver: two-watched-literal
// propagation, VSIDS-style variable activities, first-UIP conflict analysis
// with clause minimization, Luby restarts, phase saving, and activity-driven
// learnt-clause deletion. It exists so internal/exact can prove mapping
// optimality (DESIGN.md section 8k); it is deliberately small, allocation-light,
// and — crucially for certificates — deterministic: given the same formula,
// options, and seed, every run takes the same search path and returns the same
// model or refutation, regardless of GOMAXPROCS (the solver is single-threaded;
// the seed only diversifies initial activities and phases).
//
// Clauses live in one pointer-free arena of words: per clause a header word
// followed by its literals, addressed by the header's offset. Every watch
// list is a segment of one pointer-free watcher slab. The garbage collector
// has nothing to scan per clause or per literal, and Reset empties a solver
// for the next formula while keeping every buffer's capacity. Callers that
// want several formulas in flight (internal/exact races its II ladder) run
// one solver per goroutine, and may hand a solver on to another goroutine
// between formulas.
package sat

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Lit is a literal: variable v appears positively as 2v and negated as 2v+1.
type Lit uint32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(2 * v) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(2*v + 1) }

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Negated reports whether the literal is a negation.
func (l Lit) Negated() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Solver verdicts. Unknown means a budget ran out before a verdict.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Options tune one solver instance. The zero value is ready to use.
type Options struct {
	// Seed perturbs initial variable activities and phases, diversifying the
	// search path between otherwise identical runs (0 is a valid seed).
	Seed int64
	// MaxConflicts stops the search with Unknown after this many conflicts
	// (0: unbounded).
	MaxConflicts int64
	// LubyUnit is the restart base interval in conflicts (default 128).
	LubyUnit int64
	// VarDecay is the VSIDS activity decay factor in (0,1) (default 0.95).
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay factor (default 0.999).
	ClauseDecay float64
	// CheckEvery is how often, in conflicts, ctx cancellation is polled
	// (default 256).
	CheckEvery int64
}

func (o Options) withDefaults() Options {
	if o.LubyUnit <= 0 {
		o.LubyUnit = 128
	}
	if o.VarDecay <= 0 || o.VarDecay >= 1 {
		o.VarDecay = 0.95
	}
	if o.ClauseDecay <= 0 || o.ClauseDecay >= 1 {
		o.ClauseDecay = 0.999
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 256
	}
	return o
}

// Stats counts solver work; exact's certificates expose them as proof effort.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
	Restarts     int64
	Deleted      int64
}

// cref references a clause: the offset of its header word in Solver.lits.
type cref uint32

// noClause is the cref of no clause: the reason of a decision, a unit or an
// unassigned variable, and propagate's "no conflict".
const noClause cref = math.MaxUint32

// A clause in the arena is a header word, then its literals, then, for a
// learnt clause, its float64 activity as two words (low half first). The
// header word is size<<hdrShift | hdrLearnt | hdrDead.
const (
	hdrDead   = 1 // deleted by reduceDB; compact reclaims its words
	hdrLearnt = 2
	hdrShift  = 2
)

type watcher struct {
	c       cref
	blocker Lit // cached literal; if true the clause is satisfied without a walk
}

// wlist is one literal's watch list: slab[off:off+n], in a segment of cap
// slots. cap is zero or a power of two of at least 1<<minWatchLog.
type wlist struct{ off, n, cap uint32 }

// minWatchLog is the log2 capacity of a watch list's first segment.
const minWatchLog = 1

// move records that compact moved the clause at from to to.
type move struct{ from, to cref }

// Solver holds one CNF instance and its search state. Not safe for concurrent
// use; create one solver per goroutine.
type Solver struct {
	opts     Options
	lits     []Lit // the clause arena: header words, literals, activity words
	wasted   int   // words of dead clauses still in lits
	nClauses int   // problem (non-learnt) clauses
	learnts  []cref
	slab     []watcher    // every watch list's segment
	watches  []wlist      // indexed by Lit
	free     [32][]uint32 // free slab segments' offsets, by log2 capacity

	assign  []int8 // per var: 0 unassigned, +1 true, -1 false
	level   []int32
	reason  []cref
	trail   []Lit
	trailLo []int // decision-level boundaries into trail
	qhead   int

	activity []float64
	varInc   float64
	claInc   float64
	heap     []int32 // binary max-heap of vars by (activity, index)
	heapPos  []int32 // var -> heap index, -1 when absent
	phase    []bool  // saved polarity per var

	seen    []bool
	minOut  []Lit
	addBuf  []Lit  // AddClause's canonical form
	learnt  []Lit  // analyze's learnt clause
	byAct   []cref // reduceDB's activity order
	moves   []move // compact's relocations, ascending in from
	model   []int8
	unsat   bool // empty clause at level 0
	stats   Stats
	rng     uint64
	learntC float64 // learnt DB capacity

	// Store events so far; tests assert each path runs.
	compactions int // arena compactions
	slabMoves   int // watch lists moved to a larger segment
	slabReuses  int // segments taken from a free list
}

// New returns a solver with no variables or clauses.
func New(opts Options) *Solver {
	s := &Solver{}
	s.Reset(opts)
	return s
}

// Reset empties the solver for a new formula under opts, keeping the
// capacity of every buffer, the watcher slab's included. A reset solver
// takes exactly the search path of New(opts) on the same formula.
func (s *Solver) Reset(opts Options) {
	free := s.free
	for k := range free {
		free[k] = free[k][:0]
	}
	*s = Solver{
		opts:     opts.withDefaults(),
		lits:     s.lits[:0],
		learnts:  s.learnts[:0],
		slab:     s.slab[:0],
		watches:  s.watches[:0],
		free:     free,
		assign:   s.assign[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		trail:    s.trail[:0],
		trailLo:  s.trailLo[:0],
		activity: s.activity[:0],
		varInc:   1,
		claInc:   1,
		heap:     s.heap[:0],
		heapPos:  s.heapPos[:0],
		phase:    s.phase[:0],
		seen:     s.seen[:0],
		minOut:   s.minOut[:0],
		addBuf:   s.addBuf[:0],
		learnt:   s.learnt[:0],
		byAct:    s.byAct[:0],
		moves:    s.moves[:0],
		model:    s.model[:0],
	}
	s.rng = uint64(s.opts.Seed)*2685821657736338717 + 0x9e3779b97f4a7c15
}

func (s *Solver) nextRand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	// A tiny seed-derived perturbation (< 1e-6) breaks activity ties
	// differently per seed without overriding learned structure.
	s.activity = append(s.activity, float64(s.nextRand()%1024)/float64(1<<30))
	s.heapPos = append(s.heapPos, -1)
	s.phase = append(s.phase, s.nextRand()&1 == 1)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, wlist{}, wlist{})
	s.heapInsert(int32(v))
	return v
}

// SetPhase sets variable v's initial branching polarity, overriding the
// seed-derived default. Encoders use it to bias optional structure (route
// hops) toward a canonical off state; phase saving takes over once the
// variable has been assigned.
func (s *Solver) SetPhase(v int, ph bool) { s.phase[v] = ph }

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem (non-learnt) clauses retained.
func (s *Solver) NumClauses() int { return s.nClauses }

// Stats returns the work counters accumulated so far.
func (s *Solver) Stats() Stats { return s.stats }

// Footprint returns the bytes held by the solver's buffers, counted by
// capacity: what keeping the solver for a later formula keeps alive.
func (s *Solver) Footprint() int {
	n := size(s.lits) + size(s.learnts) + size(s.slab) + size(s.watches) +
		size(s.assign) + size(s.level) + size(s.reason) + size(s.trail) + size(s.trailLo) +
		size(s.activity) + size(s.heap) + size(s.heapPos) + size(s.phase) + size(s.seen) +
		size(s.minOut) + size(s.addBuf) + size(s.learnt) + size(s.byAct) + size(s.moves) + size(s.model)
	for _, fl := range s.free {
		n += size(fl)
	}
	return n
}

// size returns the bytes of b's backing array.
func size[T any](b []T) int {
	var z T
	return cap(b) * int(unsafe.Sizeof(z))
}

func (s *Solver) valueLit(l Lit) int8 {
	v := s.assign[l.Var()]
	if l.Negated() {
		return -v
	}
	return v
}

// AddClause adds a clause. Duplicate literals are removed and tautologies
// dropped; literals already false at level 0 are stripped. Adding an empty
// (or emptied) clause makes the instance trivially unsatisfiable. Clauses
// must be added before Solve.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	// Sort + dedupe for canonical form; detect tautologies (l and ¬l).
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	for i, l := range ls {
		if i > 0 && l == ls[i-1] {
			continue
		}
		if i > 0 && l == ls[i-1].Not() {
			return // tautology
		}
		switch s.valueLit(l) {
		case 1:
			return // already satisfied at level 0
		case -1:
			continue // false at level 0: strip
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		s.enqueue(out[0], noClause)
		if s.propagate() != noClause {
			s.unsat = true
		}
	default:
		s.nClauses++
		s.attach(s.alloc(out, false))
	}
}

// alloc appends a clause to the arena and returns its reference. A learnt
// clause gets two activity words after its literals, zeroed.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(s.lits))
	h := Lit(len(lits)) << hdrShift
	if learnt {
		h |= hdrLearnt
	}
	s.lits = grow(s.lits, 3+len(lits))
	s.lits = append(s.lits, h)
	s.lits = append(s.lits, lits...)
	if learnt {
		s.lits = append(s.lits, 0, 0)
	}
	return c
}

// clause returns c's literals, aliasing the arena: reordering them reorders
// the clause.
func (s *Solver) clause(c cref) []Lit {
	return s.lits[c+1 : c+1+cref(s.lits[c]>>hdrShift)]
}

// words returns how many arena words clause c occupies.
func (s *Solver) words(c cref) int {
	h := s.lits[c]
	n := 1 + int(h>>hdrShift)
	if h&hdrLearnt != 0 {
		n += 2
	}
	return n
}

func (s *Solver) isLearnt(c cref) bool { return s.lits[c]&hdrLearnt != 0 }

func (s *Solver) isDead(c cref) bool { return s.lits[c]&hdrDead != 0 }

// act returns learnt clause c's activity.
func (s *Solver) act(c cref) float64 {
	e := c + 1 + cref(s.lits[c]>>hdrShift)
	return math.Float64frombits(uint64(s.lits[e]) | uint64(s.lits[e+1])<<32)
}

func (s *Solver) setAct(c cref, a float64) {
	e := c + 1 + cref(s.lits[c]>>hdrShift)
	b := math.Float64bits(a)
	s.lits[e], s.lits[e+1] = Lit(b), Lit(b>>32)
}

// watch appends w to literal l's watch list. A full list first moves, in
// order, to a segment of twice its room; that can grow the slab, so a
// caller holding a slice of the slab must take it afresh.
func (s *Solver) watch(l Lit, w watcher) {
	wl := &s.watches[l]
	if wl.n == wl.cap {
		s.regrow(wl)
	}
	s.slab[wl.off+wl.n] = w
	wl.n++
}

// regrow moves a full watch list to a segment of twice its room, taken from
// that size's free list or from the slab's end, and frees the old segment.
func (s *Solver) regrow(wl *wlist) {
	k := minWatchLog
	if wl.cap > 0 {
		k = bits.TrailingZeros32(wl.cap) + 1
	}
	var off uint32
	if fl := s.free[k]; len(fl) > 0 {
		off = fl[len(fl)-1]
		s.free[k] = fl[:len(fl)-1]
		s.slabReuses++
	} else {
		off = uint32(len(s.slab))
		s.slab = grow(s.slab, 1<<k)[:len(s.slab)+1<<k]
	}
	if wl.cap > 0 {
		copy(s.slab[off:], s.slab[wl.off:wl.off+wl.n])
		s.free[k-1] = append(s.free[k-1], wl.off)
		s.slabMoves++
	}
	wl.off, wl.cap = off, 1<<k
}

// grow returns b with room for n more elements. A small b that must move at
// least doubles its capacity: a fresh solver fills the arena and the slab by
// appending, and append's 1.25x steps would allocate about five times their
// final size on the way there, against two. Past growDoubleMax elements b
// grows by append's steps again: a large buffer's idle capacity stays
// resident while its solver serves the next formulas, and a quarter of it
// costs less memory than a half.
func grow[T any](b []T, n int) []T {
	if cap(b)-len(b) >= n {
		return b
	}
	if cap(b) >= growDoubleMax {
		return slices.Grow(b, n)
	}
	return slices.Grow(b, max(n, cap(b)+1))
}

// growDoubleMax is the capacity, in elements, up to which grow doubles.
const growDoubleMax = 1 << 16

// watchers returns literal l's watch list, aliasing the slab.
func (s *Solver) watchers(l Lit) []watcher {
	wl := s.watches[l]
	return s.slab[wl.off : wl.off+wl.n]
}

func (s *Solver) attach(c cref) {
	lits := s.clause(c)
	w0, w1 := lits[0], lits[1]
	s.watch(w0.Not(), watcher{c, w1})
	s.watch(w1.Not(), watcher{c, w0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLo) }

func (s *Solver) enqueue(l Lit, from cref) {
	v := l.Var()
	if l.Negated() {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint; a result other than noClause
// is the conflicting clause. p's list is compacted in place while it is
// scanned; it never receives a watcher during its own scan (a new watch is
// non-false, and ¬p is false), but another list's push can grow the slab, so
// the scan takes its slice of the slab afresh after every push.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		wl := &s.watches[p]
		off, n := wl.off, int(wl.n)
		ws := s.slab[off : off+uint32(n)]
		kept := 0
		for i := 0; i < n; i++ {
			w := ws[i]
			if s.valueLit(w.blocker) == 1 {
				ws[kept] = w
				kept++
				continue
			}
			c := w.c
			lits := s.clause(c)
			// Normalize so lits[1] is the false watched literal ¬p.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.valueLit(first) == 1 {
				ws[kept] = watcher{c, first}
				kept++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.valueLit(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(lits[1].Not(), watcher{c, first})
					ws = s.slab[off : off+uint32(n)]
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[kept] = w
			kept++
			if s.valueLit(first) == -1 {
				// Conflict: keep remaining watchers, report.
				kept += copy(ws[kept:], ws[i+1:])
				wl.n = uint32(kept)
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		wl.n = uint32(kept)
	}
	return noClause
}

// analyze derives the first-UIP learnt clause from a conflict. It returns the
// minimized clause (asserting literal first) and the backjump level; the
// clause aliases a solver buffer the next conflict reuses.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p Lit
	cur := confl
	first := true
	for {
		s.bumpClause(cur)
		lits := s.clause(cur)
		start := 0
		if !first {
			start = 1 // lits[0] is the previously resolved literal
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail back to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		cur = s.reason[p.Var()]
		// Put the resolved-on literal at slot 0 so the start=1 skip holds.
		if lits := s.clause(cur); lits[0] != p {
			for k, q := range lits {
				if q == p {
					lits[0], lits[k] = lits[k], lits[0]
					break
				}
			}
		}
		first = false
	}
	learnt[0] = p.Not()

	// Local minimization: drop a literal whose reason is entirely subsumed by
	// the rest of the clause (every antecedent literal already seen/level 0).
	// Compaction aliases learnt, so the pre-minimization literals are saved in
	// minOut — the seen flags of dropped literals must be cleared too.
	s.minOut = append(s.minOut[:0], learnt[1:]...)
	for _, q := range s.minOut {
		s.seen[q.Var()] = true
	}
	out := learnt[:1]
	for _, q := range s.minOut {
		if !s.redundant(q) {
			out = append(out, q)
		}
	}
	for _, q := range s.minOut {
		s.seen[q.Var()] = false
	}
	learnt = out

	// Backjump level: the highest level among the non-asserting literals.
	back := 0
	for i := 1; i < len(learnt); i++ {
		if lv := int(s.level[learnt[i].Var()]); lv > back {
			back = lv
		}
	}
	// Move a literal of the backjump level to slot 1 so it gets watched.
	for i := 2; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) == back {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	s.learnt = learnt
	return learnt, back
}

// redundant reports whether literal q of a learnt clause is implied by the
// remaining literals (single-step self-subsumption).
func (s *Solver) redundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == noClause {
		return false
	}
	for _, a := range s.clause(r) {
		if a.Var() == q.Var() {
			continue
		}
		if !s.seen[a.Var()] && s.level[a.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLo[lvl]
	for i := len(s.trail) - 1; i >= lo; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Negated()
		s.assign[v] = 0
		s.reason[v] = noClause
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) bumpClause(c cref) {
	if !s.isLearnt(c) {
		return
	}
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.act(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// heap: max-heap on (activity, then lower var index wins ties) so decision
// order is a pure function of solver state.

func (s *Solver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapPos[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *Solver) pickBranch() (Lit, bool) {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == 0 {
			if s.phase[v] {
				return Pos(int(v)), true
			}
			return Neg(int(v)), true
		}
	}
	return 0, false
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,...
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// reduceDB removes the lower-activity half of the learnt clauses, keeping
// binary clauses and clauses that are currently a reason for an assignment.
// Removed clauses are marked dead; once dead words are over half the arena,
// compact reclaims them.
func (s *Solver) reduceDB() {
	locked := func(c cref) bool {
		v := s.clause(c)[0].Var()
		return s.assign[v] != 0 && s.reason[v] == c
	}
	s.byAct = append(s.byAct[:0], s.learnts...)
	slices.SortStableFunc(s.byAct, func(a, b cref) int { return cmp.Compare(s.act(a), s.act(b)) })
	dropped := 0
	for _, c := range s.byAct[:len(s.byAct)/2] {
		if len(s.clause(c)) > 2 && !locked(c) {
			s.lits[c] |= hdrDead
			s.wasted += s.words(c)
			dropped++
		}
	}
	if dropped == 0 {
		return
	}
	s.learnts = slices.DeleteFunc(s.learnts, s.isDead)
	deadWatch := func(w watcher) bool { return s.isDead(w.c) }
	for l := range s.watches {
		s.watches[l].n = uint32(len(slices.DeleteFunc(s.watchers(Lit(l)), deadWatch)))
	}
	s.stats.Deleted += int64(dropped)
	if 2*s.wasted > len(s.lits) {
		s.compact()
	}
}

// compact squeezes dead clauses out of the arena, moving the live ones down
// in order, and relocates every cref the solver holds: watch lists (in
// place, so their order is kept), reasons and learnts. Dead clauses are in
// none of them, so no search decision sees the move.
func (s *Solver) compact() {
	s.moves = s.moves[:0]
	var to cref
	for from := cref(0); int(from) < len(s.lits); {
		n := cref(s.words(from))
		if !s.isDead(from) {
			if to != from {
				copy(s.lits[to:to+n], s.lits[from:from+n])
				s.moves = append(s.moves, move{from, to})
			}
			to += n
		}
		from += n
	}
	s.lits = s.lits[:to]
	s.wasted = 0
	for l := range s.watches {
		ws := s.watchers(Lit(l))
		for i := range ws {
			ws[i].c = s.relocate(ws[i].c)
		}
	}
	for v, r := range s.reason {
		if r != noClause {
			s.reason[v] = s.relocate(r)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = s.relocate(c)
	}
	s.compactions++
}

// relocate returns where the last compaction put the live clause that was at
// c: moves lists every clause that moved, ascending, and the rest stayed.
func (s *Solver) relocate(c cref) cref {
	if i, ok := slices.BinarySearchFunc(s.moves, c, func(m move, c cref) int { return cmp.Compare(m.from, c) }); ok {
		return s.moves[i].to
	}
	return c
}

// Solve searches for a model. It returns Sat with a model readable via Value,
// Unsat when the instance is refuted, or Unknown when MaxConflicts ran out.
// Context cancellation is polled every CheckEvery conflicts and surfaces as
// (Unknown, ctx.Err()).
func (s *Solver) Solve(ctx context.Context) (Status, error) {
	if s.unsat {
		return Unsat, nil
	}
	if confl := s.propagate(); confl != noClause {
		s.unsat = true
		return Unsat, nil
	}
	s.learntC = math.Max(float64(s.nClauses)/3, 100)
	var restartSeq int64 = 1
	limit := s.opts.LubyUnit * luby(restartSeq)
	var sinceRestart int64
	startConflicts := s.stats.Conflicts
	for {
		confl := s.propagate()
		if confl != noClause {
			s.stats.Conflicts++
			sinceRestart++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat, nil
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], noClause)
			} else {
				c := s.alloc(learnt, true)
				s.setAct(c, s.claInc)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.enqueue(learnt[0], c)
				s.stats.Learned++
			}
			s.varInc /= s.opts.VarDecay
			s.claInc /= s.opts.ClauseDecay
			if s.stats.Conflicts%s.opts.CheckEvery == 0 {
				select {
				case <-ctx.Done():
					return Unknown, ctx.Err()
				default:
				}
			}
			if s.opts.MaxConflicts > 0 && s.stats.Conflicts-startConflicts >= s.opts.MaxConflicts {
				return Unknown, nil
			}
			continue
		}
		if sinceRestart >= limit {
			s.stats.Restarts++
			restartSeq++
			limit = s.opts.LubyUnit * luby(restartSeq)
			sinceRestart = 0
			s.cancelUntil(0)
			continue
		}
		if float64(len(s.learnts)) >= s.learntC+float64(len(s.trail)) {
			s.reduceDB()
			s.learntC *= 1.3
		}
		l, ok := s.pickBranch()
		if !ok {
			s.model = append(s.model[:0], s.assign...)
			return Sat, nil
		}
		s.stats.Decisions++
		s.trailLo = append(s.trailLo, len(s.trail))
		s.enqueue(l, noClause)
	}
}

// Value reports variable v's polarity in the model of the last Sat verdict.
func (s *Solver) Value(v int) bool { return s.model[v] > 0 }
