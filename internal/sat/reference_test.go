package sat

// The reference solver: the pointer-based clause store this package used
// before the clause arena (one heap object per clause, pointer watchers and
// reasons, one slice per watch list), kept verbatim apart from its names.
// TestArenaMatchesReference diffs every verdict, counter and model of the
// arena solver against it, so the arena and the watcher slab are a storage
// change only: same search path, same answers.

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

type refClause struct {
	lits   []Lit
	act    float64
	learnt bool
}

type refWatcher struct {
	c       *refClause
	blocker Lit // cached literal; if true the clause is satisfied without a walk
}

// refSolver holds one CNF instance and its search state. Not safe for concurrent
// use; create one solver per goroutine.
type refSolver struct {
	opts    Options
	clauses []*refClause
	learnts []*refClause
	watches [][]refWatcher // indexed by Lit

	assign  []int8 // per var: 0 unassigned, +1 true, -1 false
	level   []int32
	reason  []*refClause
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
	model   []int8
	unsat   bool // empty clause at level 0
	stats   Stats
	rng     uint64
	learntC float64 // learnt DB capacity
}

// newRef returns a solver with no variables or clauses.
func newRef(opts Options) *refSolver {
	s := &refSolver{
		opts:   opts.withDefaults(),
		varInc: 1,
		claInc: 1,
	}
	s.rng = uint64(s.opts.Seed)*2685821657736338717 + 0x9e3779b97f4a7c15
	return s
}

func (s *refSolver) nextRand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// NewVar adds a fresh variable and returns its index.
func (s *refSolver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	// A tiny seed-derived perturbation (< 1e-6) breaks activity ties
	// differently per seed without overriding learned structure.
	s.activity = append(s.activity, float64(s.nextRand()%1024)/float64(1<<30))
	s.heapPos = append(s.heapPos, -1)
	s.phase = append(s.phase, s.nextRand()&1 == 1)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heapInsert(int32(v))
	return v
}

// SetPhase sets variable v's initial branching polarity, overriding the
// seed-derived default. Encoders use it to bias optional structure (route
// hops) toward a canonical off state; phase saving takes over once the
// variable has been assigned.
func (s *refSolver) SetPhase(v int, ph bool) { s.phase[v] = ph }

// NumVars returns the number of variables created so far.
func (s *refSolver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem (non-learnt) clauses retained.
func (s *refSolver) NumClauses() int { return len(s.clauses) }

// Stats returns the work counters accumulated so far.
func (s *refSolver) Stats() Stats { return s.stats }

func (s *refSolver) valueLit(l Lit) int8 {
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
func (s *refSolver) AddClause(lits ...Lit) {
	if s.unsat {
		return
	}
	// Sort + dedupe for canonical form; detect tautologies (l and ¬l).
	ls := append(make([]Lit, 0, len(lits)), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
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
		s.enqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsat = true
		}
	default:
		c := &refClause{lits: append([]Lit(nil), out...)}
		s.clauses = append(s.clauses, c)
		s.attach(c)
	}
}

func (s *refSolver) attach(c *refClause) {
	w0, w1 := c.lits[0], c.lits[1]
	s.watches[w0.Not()] = append(s.watches[w0.Not()], refWatcher{c, w1})
	s.watches[w1.Not()] = append(s.watches[w1.Not()], refWatcher{c, w0})
}

func (s *refSolver) decisionLevel() int { return len(s.trailLo) }

func (s *refSolver) enqueue(l Lit, from *refClause) {
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

// propagate runs unit propagation to fixpoint; a non-nil result is the
// conflicting clause.
func (s *refSolver) propagate() *refClause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.valueLit(w.blocker) == 1 {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize so lits[1] is the false watched literal ¬p.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.valueLit(first) == 1 {
				kept = append(kept, refWatcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != -1 {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], refWatcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if s.valueLit(first) == -1 {
				// Conflict: keep remaining watchers, report.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[p] = kept
	}
	return nil
}

// analyze derives the first-UIP learnt clause from a conflict. It returns the
// minimized clause (asserting literal first) and the backjump level.
func (s *refSolver) analyze(confl *refClause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p Lit
	cur := confl
	first := true
	for {
		s.bumpClause(cur)
		lits := cur.lits
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
		if cur.lits[0] != p {
			for k, q := range cur.lits {
				if q == p {
					cur.lits[0], cur.lits[k] = cur.lits[k], cur.lits[0]
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
	return learnt, back
}

// redundant reports whether literal q of a learnt clause is implied by the
// remaining literals (single-step self-subsumption).
func (s *refSolver) redundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == nil {
		return false
	}
	for _, a := range r.lits {
		if a.Var() == q.Var() {
			continue
		}
		if !s.seen[a.Var()] && s.level[a.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *refSolver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLo[lvl]
	for i := len(s.trail) - 1; i >= lo; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Negated()
		s.assign[v] = 0
		s.reason[v] = nil
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
	s.qhead = len(s.trail)
}

func (s *refSolver) bumpVar(v int) {
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

func (s *refSolver) bumpClause(c *refClause) {
	if !c.learnt {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// heap: max-heap on (activity, then lower var index wins ties) so decision
// order is a pure function of solver state.

func (s *refSolver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *refSolver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *refSolver) heapUp(i int32) {
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

func (s *refSolver) heapDown(i int32) {
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

func (s *refSolver) heapPop() int32 {
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

func (s *refSolver) pickBranch() (Lit, bool) {
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
func refLuby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return refLuby(i - (1 << (k - 1)) + 1)
		}
	}
}

// reduceDB removes the lower-activity half of the learnt clauses, keeping
// binary clauses and clauses that are currently a reason for an assignment.
func (s *refSolver) reduceDB() {
	locked := func(c *refClause) bool {
		v := c.lits[0].Var()
		return s.assign[v] != 0 && s.reason[v] == c
	}
	sorted := append([]*refClause(nil), s.learnts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].act < sorted[j].act })
	drop := make(map[*refClause]bool, len(sorted)/2)
	for _, c := range sorted[:len(sorted)/2] {
		if len(c.lits) > 2 && !locked(c) {
			drop[c] = true
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !drop[c] {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	for li := range s.watches {
		ws := s.watches[li][:0]
		for _, w := range s.watches[li] {
			if !drop[w.c] {
				ws = append(ws, w)
			}
		}
		s.watches[li] = ws
	}
	s.stats.Deleted += int64(len(drop))
}

// Solve searches for a model. It returns Sat with a model readable via Value,
// Unsat when the instance is refuted, or Unknown when MaxConflicts ran out.
// Context cancellation is polled every CheckEvery conflicts and surfaces as
// (Unknown, ctx.Err()).
func (s *refSolver) Solve(ctx context.Context) (Status, error) {
	if s.unsat {
		return Unsat, nil
	}
	if confl := s.propagate(); confl != nil {
		s.unsat = true
		return Unsat, nil
	}
	s.learntC = math.Max(float64(len(s.clauses))/3, 100)
	var restartSeq int64 = 1
	limit := s.opts.LubyUnit * refLuby(restartSeq)
	var sinceRestart int64
	startConflicts := s.stats.Conflicts
	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			sinceRestart++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat, nil
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &refClause{lits: learnt, learnt: true, act: s.claInc}
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
			limit = s.opts.LubyUnit * refLuby(restartSeq)
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
		s.enqueue(l, nil)
	}
}

// Value reports variable v's polarity in the model of the last Sat verdict.
func (s *refSolver) Value(v int) bool { return s.model[v] > 0 }

// formula is a CNF with initial phase hints, loadable into either solver.
type formula struct {
	name    string
	nVars   int
	clauses [][]Lit
	phases  []bool // per var; nil: leave the seed-derived phase
}

// loader is the formula-building surface both solvers share.
type loader interface {
	NewVar() int
	SetPhase(v int, ph bool)
	AddClause(lits ...Lit)
}

// load builds f into s the way the exact encoder builds its formulas:
// variables are created as the clauses reach them, so unit clauses propagate
// at level 0 while the formula is still growing.
func (f *formula) load(s loader) {
	made := 0
	grow := func(n int) {
		for ; made < n; made++ {
			s.NewVar()
			if f.phases != nil {
				s.SetPhase(made, f.phases[made])
			}
		}
	}
	for _, c := range f.clauses {
		top := 0
		for _, l := range c {
			top = max(top, l.Var()+1)
		}
		grow(top)
		s.AddClause(c...)
	}
	grow(f.nVars)
}

func randLit(rng *rand.Rand, nVars int) Lit {
	if rng.Intn(2) == 0 {
		return Pos(rng.Intn(nVars))
	}
	return Neg(rng.Intn(nVars))
}

// random3SAT draws uniform random 3-SAT at the satisfiability threshold
// (4.26 clauses per variable), where instances are hardest.
func random3SAT(rng *rand.Rand, n int) formula {
	f := formula{name: "3sat", nVars: n}
	for i := 0; i < int(4.26*float64(n)+0.5); i++ {
		f.clauses = append(f.clauses, []Lit{randLit(rng, n), randLit(rng, n), randLit(rng, n)})
	}
	return f
}

// randomMixed draws clauses of width 1 to 6 with units, duplicate literals
// and tautologies mixed in, plus random phase hints.
func randomMixed(rng *rand.Rand) formula {
	n := 20 + rng.Intn(60)
	f := formula{name: "mixed", nVars: n, phases: make([]bool, n)}
	for v := range f.phases {
		f.phases[v] = rng.Intn(2) == 0
	}
	for i := 0; i < 3*n; i++ {
		w := 2 + rng.Intn(5)
		if rng.Intn(40) == 0 {
			w = 1
		}
		c := make([]Lit, w)
		for j := range c {
			c[j] = randLit(rng, n)
		}
		switch rng.Intn(8) {
		case 0:
			c = append(c, c[rng.Intn(len(c))]) // duplicate literal
		case 1:
			c = append(c, c[rng.Intn(len(c))].Not()) // tautology
		}
		f.clauses = append(f.clauses, c)
	}
	return f
}

func pigeonholeFormula(pigeons, holes int) formula {
	f := formula{name: "php", nVars: pigeons * holes}
	at := func(p, h int) Lit { return Pos(p*holes + h) }
	for p := 0; p < pigeons; p++ {
		c := make([]Lit, holes)
		for h := range c {
			c[h] = at(p, h)
		}
		f.clauses = append(f.clauses, c)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				f.clauses = append(f.clauses, []Lit{at(p, h).Not(), at(q, h).Not()})
			}
		}
	}
	return f
}

// arenaClause is one live clause met by walking the arena.
type arenaClause struct {
	c      cref
	lits   []Lit
	learnt bool
	act    float64
}

// walkArena decodes the arena from its first word: every clause is a header
// word, its literals and, when learnt, two activity words. The walk must
// land exactly on the arena's end, and the dead clauses it skips must add up
// to the solver's wasted count. It returns the live clauses in arena order.
func walkArena(t *testing.T, what string, s *Solver) []arenaClause {
	t.Helper()
	var live []arenaClause
	dead := 0
	for c := 0; c < len(s.lits); {
		h := s.lits[c]
		size := int(h >> hdrShift)
		n := 1 + size
		learnt := h&hdrLearnt != 0
		if learnt {
			n += 2
		}
		if size < 2 || c+n > len(s.lits) {
			t.Fatalf("%s: arena word %d is no clause header (%#x)", what, c, h)
		}
		if h&hdrDead != 0 {
			dead += n
		} else {
			ac := arenaClause{c: cref(c), lits: s.lits[c+1 : c+1+size], learnt: learnt}
			if learnt {
				e := c + 1 + size
				ac.act = math.Float64frombits(uint64(s.lits[e]) | uint64(s.lits[e+1])<<32)
			}
			live = append(live, ac)
		}
		c += n
	}
	if dead != s.wasted {
		t.Fatalf("%s: %d dead words in the arena, wasted says %d", what, dead, s.wasted)
	}
	return live
}

// checkSlab holds the slab's layout: every watch list and every free
// segment is a power-of-two segment inside the slab, no two overlap, and a
// list fits its segment.
func checkSlab(t *testing.T, what string, s *Solver) {
	t.Helper()
	type seg struct{ off, cap uint32 }
	var segs []seg
	for l, wl := range s.watches {
		if wl.n > wl.cap || (wl.cap != 0 && (wl.cap&(wl.cap-1) != 0 || wl.cap < 1<<minWatchLog)) {
			t.Fatalf("%s: watch list %d holds %d in a segment of %d", what, l, wl.n, wl.cap)
		}
		if wl.cap > 0 {
			segs = append(segs, seg{wl.off, wl.cap})
		}
	}
	for k, fl := range s.free {
		for _, off := range fl {
			segs = append(segs, seg{off, 1 << k})
		}
	}
	slices.SortFunc(segs, func(a, b seg) int { return cmp.Compare(a.off, b.off) })
	end := uint32(0)
	for _, g := range segs {
		if g.off < end {
			t.Fatalf("%s: slab segment at %d overlaps the one ending at %d", what, g.off, end)
		}
		end = g.off + g.cap
	}
	if int(end) > len(s.slab) {
		t.Fatalf("%s: slab segments end at %d, past the slab's %d", what, end, len(s.slab))
	}
}

// diffSolvers reports every difference between the reference solver and an
// arena solver after the same formula and solve: verdict, counters, model,
// assignment, the literal order of every clause (problem clauses first, then
// the learnts in learning order, each with its activity), every reason, and
// the order of every watch list.
func diffSolvers(t *testing.T, what string, ref *refSolver, rst Status, got *Solver, gst Status) {
	t.Helper()
	if rst != gst {
		t.Fatalf("%s: status %v, reference %v", what, gst, rst)
	}
	if ref.Stats() != got.Stats() {
		t.Fatalf("%s: stats %+v, reference %+v", what, got.Stats(), ref.Stats())
	}
	if ref.NumVars() != got.NumVars() || ref.NumClauses() != got.NumClauses() {
		t.Fatalf("%s: %d vars %d clauses, reference %d vars %d clauses",
			what, got.NumVars(), got.NumClauses(), ref.NumVars(), ref.NumClauses())
	}
	if !slices.Equal(ref.model, got.model) || !slices.Equal(ref.assign, got.assign) {
		t.Fatalf("%s: model or assignment differs from the reference", what)
	}
	live := walkArena(t, what, got)
	if len(live) != len(ref.clauses)+len(ref.learnts) {
		t.Fatalf("%s: %d live clauses in the arena, reference %d problem and %d learnt",
			what, len(live), len(ref.clauses), len(ref.learnts))
	}
	// Problem clauses never die and come before every learnt clause.
	for i, c := range ref.clauses {
		if live[i].learnt || !slices.Equal(c.lits, live[i].lits) {
			t.Fatalf("%s: problem clause %d is %v (learnt %v), reference %v", what, i, live[i].lits, live[i].learnt, c.lits)
		}
	}
	if len(ref.learnts) != len(got.learnts) {
		t.Fatalf("%s: %d learnt clauses, reference %d", what, len(got.learnts), len(ref.learnts))
	}
	for i, c := range ref.learnts {
		lc := live[len(ref.clauses)+i]
		if !lc.learnt || lc.c != got.learnts[i] || !slices.Equal(c.lits, lc.lits) || lc.act != c.act {
			t.Fatalf("%s: learnt clause %d is %v (act %g) at %d, learnts has %d, reference %v (act %g)",
				what, i, lc.lits, lc.act, lc.c, got.learnts[i], c.lits, c.act)
		}
	}
	at := make(map[cref][]Lit, len(live))
	for _, lc := range live {
		at[lc.c] = lc.lits
	}
	for v, r := range ref.reason {
		g := got.reason[v]
		if (r == nil) != (g == noClause) || (r != nil && !slices.Equal(r.lits, at[g])) {
			t.Fatalf("%s: reason of var %d differs from the reference", what, v)
		}
	}
	checkSlab(t, what, got)
	for l, ws := range ref.watches {
		gws := got.watchers(Lit(l))
		if len(ws) != len(gws) {
			t.Fatalf("%s: watch list %d has %d watchers, reference %d", what, l, len(gws), len(ws))
		}
		for i, w := range ws {
			if w.blocker != gws[i].blocker || !slices.Equal(w.c.lits, at[gws[i].c]) {
				t.Fatalf("%s: watcher %d of literal %d differs from the reference", what, i, l)
			}
		}
	}
}

// TestArenaMatchesReference diffs the arena solver against the reference
// solver over random 3-SAT at the threshold, random mixed-width formulas and
// pigeonhole instances, across seeds, restart units and conflict budgets. A
// solver reused through Reset must match a fresh one on every formula,
// whatever state the previous formula left it in (Sat, Unsat or stopped
// mid-search by the budget). The corpus must reach learnt-clause deletion,
// restarts, the variable-activity rescale, arena compaction, watch lists
// moving to larger slab segments and freed segments being reused, or the
// diff proves nothing about them.
func TestArenaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var corpus []formula
	for _, n := range []int{50, 80, 110, 140} {
		corpus = append(corpus, random3SAT(rng, n), random3SAT(rng, n))
	}
	for i := 0; i < 8; i++ {
		corpus = append(corpus, randomMixed(rng))
	}
	corpus = append(corpus, pigeonholeFormula(6, 5), pigeonholeFormula(7, 6), pigeonholeFormula(6, 6))
	var optSets []Options
	for _, seed := range []int64{0, 3} {
		for _, unit := range []int64{0, 16} {
			for _, budget := range []int64{0, 50} {
				optSets = append(optSets, Options{Seed: seed, LubyUnit: unit, MaxConflicts: budget})
			}
		}
	}
	// One long solve for the variable-activity rescale, which fires once
	// VarInc = VarDecay^-conflicts passes 1e100: about 4,500 conflicts at the
	// default decay, 1,420 at this one.
	long := pigeonholeFormula(8, 7)
	longOpts := Options{Seed: 1, VarDecay: 0.85}

	var reused Solver
	var deleted, restarts int64
	compactions, slabMoves, slabReuses, rescaled := 0, 0, 0, false
	check := func(f *formula, opts Options) {
		ref := newRef(opts)
		f.load(ref)
		rst, rerr := ref.Solve(context.Background())
		fresh := New(opts)
		f.load(fresh)
		fst, ferr := fresh.Solve(context.Background())
		reused.Reset(opts)
		f.load(&reused)
		ust, uerr := reused.Solve(context.Background())
		if rerr != nil || ferr != nil || uerr != nil {
			t.Fatalf("%s %+v: solve errors %v / %v / %v", f.name, opts, rerr, ferr, uerr)
		}
		diffSolvers(t, f.name+" (new)", ref, rst, fresh, fst)
		diffSolvers(t, f.name+" (reset)", ref, rst, &reused, ust)
		st := fresh.Stats()
		deleted += st.Deleted
		restarts += st.Restarts
		compactions += fresh.compactions
		slabMoves += fresh.slabMoves
		slabReuses += fresh.slabReuses
		if rescaleAt := 100 * math.Ln10 / -math.Log(fresh.opts.VarDecay); float64(st.Conflicts) > rescaleAt {
			rescaled = true
		}
	}
	for fi := range corpus {
		for _, opts := range optSets {
			check(&corpus[fi], opts)
		}
	}
	check(&long, longOpts)
	if deleted == 0 || restarts == 0 || !rescaled || compactions == 0 || slabMoves == 0 || slabReuses == 0 {
		t.Fatalf("corpus too easy: deleted %d, restarts %d, rescaled %v, %d compactions, %d slab moves, %d segment reuses",
			deleted, restarts, rescaled, compactions, slabMoves, slabReuses)
	}
}
