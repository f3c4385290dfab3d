package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Cap() != 130 {
		t.Fatalf("Cap = %d, want 130", b.Cap())
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	if got := b.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if !b.Has(64) || b.Has(65) {
		t.Error("Has gave wrong answers around a word boundary")
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Clear(64) had no effect")
	}
	got := b.Members()
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestBitsetPanics(t *testing.T) {
	b := NewBitset(10)
	for _, bad := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", bad)
				}
			}()
			b.Set(bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("capacity mismatch did not panic")
		}
	}()
	b.And(NewBitset(11))
}

func TestBitsetSetOps(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	inter := a.Clone()
	inter.And(b)
	if got := inter.Count(); got != 17 { // multiples of 6 below 100
		t.Errorf("intersection count = %d, want 17", got)
	}
	if got := a.IntersectCount(b); got != 17 {
		t.Errorf("IntersectCount = %d, want 17", got)
	}
	union := a.Clone()
	union.Or(b)
	if got := union.Count(); got != 50+34-17 {
		t.Errorf("union count = %d, want 67", got)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.Count(); got != 50-17 {
		t.Errorf("difference count = %d, want 33", got)
	}
	if !union.ContainsAll(a) || inter.ContainsAll(a) {
		t.Error("ContainsAll gave wrong answers")
	}
}

func TestBitsetForEachEarlyStop(t *testing.T) {
	b := NewBitset(200)
	for i := 0; i < 200; i++ {
		b.Set(i)
	}
	n := 0
	b.ForEach(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("ForEach visited %d members after early stop, want 5", n)
	}
}

func TestBitsetResetAndCopy(t *testing.T) {
	b := NewBitset(70)
	b.Set(1)
	b.Set(69)
	c := NewBitset(70)
	c.CopyFrom(b)
	b.Reset()
	if !b.Empty() {
		t.Error("Reset left members behind")
	}
	if c.Count() != 2 {
		t.Error("CopyFrom did not preserve the source")
	}
}

// Property: bitset set operations agree with a map-based model, including
// the word-ranged union the compat builder runs on operation spans and the
// fused one-pass update behind the clique engine's one-miss set.
func TestBitsetAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		bs := NewBitset(n)
		model := map[int]bool{}
		for i := 0; i < 200; i++ {
			x := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				bs.Set(x)
				model[x] = true
			case 1:
				bs.Clear(x)
				delete(model, x)
			case 2:
				if bs.Has(x) != model[x] {
					return false
				}
			}
		}
		if bs.Count() != len(model) {
			return false
		}
		words := len(bs.Words())
		inRange := func(i, lo, hi int) bool { return i>>6 >= lo && i>>6 < hi }
		// Sets clustered in a random window of ids, like one operation's
		// bindings, so word bounds are often narrower than the whole width.
		x, xm := randomModelSet(rng, n)

		if lo, hi := bs.WordBounds(); !modelBounds(model, words, lo, hi) {
			return false
		}
		if bs.First() != modelMin(model, 0, words) {
			return false
		}
		// OrWords unions x's words [lo, hi) into b and leaves b's other
		// words.
		lo := rng.Intn(words + 1)
		hi := lo + rng.Intn(words-lo+1)
		before := bs.Clone()
		bs.OrWords(lo, x.Words()[lo:hi])
		for i := 0; i < n; i++ {
			want := before.Has(i)
			if inRange(i, lo, hi) {
				want = want || xm[i]
			}
			if bs.Has(i) != want {
				return false
			}
		}

		// AndSpill: b = b ∩ x, spill = (spill ∩ x) ∪ (b \ x), one pass.
		b, bm := randomModelSet(rng, n)
		spill, sm := randomModelSet(rng, n)
		b.AndSpill(x, spill)
		for i := 0; i < n; i++ {
			if b.Has(i) != (bm[i] && xm[i]) || spill.Has(i) != (sm[i] && xm[i] || bm[i] && !xm[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomModelSet returns a random bitset of capacity n whose members lie in
// a random window of ids, and its map model.
func randomModelSet(rng *rand.Rand, n int) (*Bitset, map[int]bool) {
	b := NewBitset(n)
	m := map[int]bool{}
	lo := rng.Intn(n)
	width := 1 + rng.Intn(n-lo)
	for k := rng.Intn(2 * width); k > 0; k-- {
		i := lo + rng.Intn(width)
		b.Set(i)
		m[i] = true
	}
	return b, m
}

// modelBounds reports whether [lo, hi) is the model's word range as
// WordBounds defines it: (0, 0) when empty.
func modelBounds(m map[int]bool, words, lo, hi int) bool {
	if len(m) == 0 {
		return lo == 0 && hi == 0
	}
	return lo == modelMin(m, 0, words)>>6 && hi == modelMax(m)>>6+1
}

// modelMin returns the model's smallest member in the word range [lo, hi),
// or -1.
func modelMin(m map[int]bool, lo, hi int) int {
	best := -1
	for i := range m {
		if i>>6 >= lo && i>>6 < hi && (best == -1 || i < best) {
			best = i
		}
	}
	return best
}

// modelMax returns the model's largest member, or -1.
func modelMax(m map[int]bool) int {
	best := -1
	for i := range m {
		best = max(best, i)
	}
	return best
}

func TestBitsetGrow(t *testing.T) {
	b := NewBitset(10)
	b.Set(3)
	b.Set(9)
	b.Grow(5) // shrink within existing words: must clear, keep capacity
	if b.Cap() != 5 {
		t.Fatalf("Cap after Grow(5) = %d", b.Cap())
	}
	if !b.Empty() {
		t.Fatal("Grow did not clear the set")
	}
	b.Set(4)
	b.Grow(200) // grow past the backing array
	if b.Cap() != 200 || !b.Empty() {
		t.Fatalf("Grow(200): cap=%d empty=%v", b.Cap(), b.Empty())
	}
	b.Set(199)
	if !b.Has(199) || b.Count() != 1 {
		t.Fatal("bitset unusable after Grow")
	}
	// Steady state: growing within capacity must not allocate.
	b.Grow(64)
	if n := testing.AllocsPerRun(20, func() { b.Grow(128); b.Grow(64) }); n != 0 {
		t.Fatalf("Grow within capacity allocates %.1f times per run", n)
	}
}
