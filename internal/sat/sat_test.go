package sat

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// bruteForce decides satisfiability of cnf over nVars variables by
// enumeration, the ground truth for the randomized cross-check.
func bruteForce(nVars int, cnf [][]Lit) (bool, []bool) {
	assign := make([]bool, nVars)
	for mask := 0; mask < 1<<nVars; mask++ {
		for v := 0; v < nVars; v++ {
			assign[v] = mask&(1<<v) != 0
		}
		ok := true
		for _, c := range cnf {
			sat := false
			for _, l := range c {
				if assign[l.Var()] != l.Negated() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true, assign
		}
	}
	return false, nil
}

func solveCNF(t *testing.T, nVars int, cnf [][]Lit, opts Options) (Status, *Solver) {
	t.Helper()
	s := New(opts)
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, c := range cnf {
		s.AddClause(c...)
	}
	st, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return st, s
}

func checkModel(t *testing.T, s *Solver, cnf [][]Lit) {
	t.Helper()
	for i, c := range cnf {
		sat := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Negated() {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model violates clause %d: %v", i, c)
		}
	}
}

func TestTrivial(t *testing.T) {
	// Empty formula is Sat.
	if st, _ := solveCNF(t, 0, nil, Options{}); st != Sat {
		t.Fatalf("empty formula: got %v", st)
	}
	// x ∧ ¬x is Unsat.
	if st, _ := solveCNF(t, 1, [][]Lit{{Pos(0)}, {Neg(0)}}, Options{}); st != Unsat {
		t.Fatalf("x ∧ ¬x: got %v", st)
	}
	// (x ∨ y) ∧ ¬x forces y.
	st, s := solveCNF(t, 2, [][]Lit{{Pos(0), Pos(1)}, {Neg(0)}}, Options{})
	if st != Sat || s.Value(0) || !s.Value(1) {
		t.Fatalf("unit chain: status %v values x=%v y=%v", st, s.Value(0), s.Value(1))
	}
	// Tautologies and duplicate literals must not confuse the solver.
	st, _ = solveCNF(t, 2, [][]Lit{{Pos(0), Neg(0)}, {Pos(1), Pos(1)}}, Options{})
	if st != Sat {
		t.Fatalf("tautology handling: got %v", st)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, a classic
// resolution-hard UNSAT family that exercises clause learning.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]Lit, pigeons)
	for p := range vars {
		vars[p] = make([]Lit, holes)
		for h := range vars[p] {
			vars[p][h] = Pos(s.NewVar())
		}
	}
	for p := 0; p < pigeons; p++ {
		s.AddClause(vars[p]...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(vars[p1][h].Not(), vars[p2][h].Not())
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for holes := 2; holes <= 5; holes++ {
		s := New(Options{})
		pigeonhole(s, holes+1, holes)
		st, err := s.Solve(context.Background())
		if err != nil || st != Unsat {
			t.Fatalf("PHP(%d,%d): status %v err %v", holes+1, holes, st, err)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New(Options{})
	pigeonhole(s, 4, 4)
	st, err := s.Solve(context.Background())
	if err != nil || st != Sat {
		t.Fatalf("PHP(4,4): status %v err %v", st, err)
	}
}

func randomCNF(rng *rand.Rand) (int, [][]Lit) {
	nVars := 3 + rng.Intn(10)
	nClauses := 2 + rng.Intn(5*nVars)
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		width := 1 + rng.Intn(4)
		c := make([]Lit, width)
		for j := range c {
			v := rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				c[j] = Pos(v)
			} else {
				c[j] = Neg(v)
			}
		}
		cnf[i] = c
	}
	return nVars, cnf
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		nVars, cnf := randomCNF(rng)
		want, _ := bruteForce(nVars, cnf)
		st, s := solveCNF(t, nVars, cnf, Options{Seed: int64(trial)})
		if (st == Sat) != want {
			t.Fatalf("trial %d: solver %v, brute force sat=%v (vars=%d cnf=%v)",
				trial, st, want, nVars, cnf)
		}
		if st == Sat {
			checkModel(t, s, cnf)
		}
	}
}

func TestDeterministic(t *testing.T) {
	run := func(seed int64) (Status, Stats, []int8) {
		s := New(Options{Seed: seed})
		pigeonhole(s, 6, 6)
		// Extra structure so the search is non-trivial.
		s.AddClause(Pos(0), Pos(7), Pos(14))
		st, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		return st, s.Stats(), append([]int8(nil), s.model...)
	}
	st1, stats1, m1 := run(42)
	st2, stats2, m2 := run(42)
	if st1 != st2 || !reflect.DeepEqual(stats1, stats2) || !reflect.DeepEqual(m1, m2) {
		t.Fatalf("same seed diverged: %v/%v %+v/%+v", st1, st2, stats1, stats2)
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := New(Options{MaxConflicts: 5})
	pigeonhole(s, 8, 7) // hard enough that 5 conflicts cannot refute it
	st, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if st != Unknown {
		t.Fatalf("budgeted solve: got %v, want Unknown", st)
	}
	if got := s.Stats().Conflicts; got < 5 {
		t.Fatalf("conflicts %d, want >= 5", got)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Options{CheckEvery: 1})
	pigeonhole(s, 9, 8)
	st, err := s.Solve(ctx)
	if err == nil {
		// The instance may have been refuted before the first poll; anything
		// else must surface the cancellation.
		if st != Unsat {
			t.Fatalf("cancelled solve returned %v with nil error", st)
		}
		return
	}
	if st != Unknown || err != context.Canceled {
		t.Fatalf("cancelled solve: status %v err %v", st, err)
	}
}

func TestContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	s := New(Options{CheckEvery: 16})
	pigeonhole(s, 11, 10) // far beyond a 10ms budget
	st, err := s.Solve(ctx)
	if err == nil {
		t.Skipf("instance solved within deadline (status %v); machine too fast", st)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("deadline err = %v", err)
	}
}

func TestSeedDiversifiesButAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		nVars, cnf := randomCNF(rng)
		st1, _ := solveCNF(t, nVars, cnf, Options{Seed: 1})
		st2, _ := solveCNF(t, nVars, cnf, Options{Seed: 2, LubyUnit: 32})
		if st1 != st2 {
			t.Fatalf("trial %d: seeds disagree on satisfiability: %v vs %v", trial, st1, st2)
		}
	}
}

func BenchmarkSolvePigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(Options{})
		pigeonhole(s, 7, 6)
		if st, err := s.Solve(context.Background()); err != nil || st != Unsat {
			b.Fatalf("status %v err %v", st, err)
		}
	}
}

// TestFootprintKeptByReset: Footprint counts the buffers a formula grew,
// and Reset keeps all of them, so a reused solver holds what its largest
// formula needed.
func TestFootprintKeptByReset(t *testing.T) {
	s := New(Options{})
	empty := s.Footprint()
	pigeonhole(s, 7, 6)
	if st, err := s.Solve(context.Background()); err != nil || st != Unsat {
		t.Fatalf("PHP(7,6): status %v err %v", st, err)
	}
	used := s.Footprint()
	if used <= empty {
		t.Fatalf("footprint %d after a solve, %d empty", used, empty)
	}
	s.Reset(Options{})
	if got := s.Footprint(); got != used {
		t.Fatalf("footprint %d after Reset, %d before", got, used)
	}
}
