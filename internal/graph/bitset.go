package graph

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers backed by
// 64-bit words. It is the workhorse of the clique engine, where adjacency
// tests and neighbourhood intersections dominate the running time.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset able to hold values 0..n-1.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("graph: negative bitset capacity")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// NewBitsetSlab returns count empty bitsets of capacity n whose word storage
// comes from a single backing allocation. The clique engine's adjacency rows
// and the compat builder's candidate masks are allocated this way: one graph
// no longer costs two allocations per row.
func NewBitsetSlab(n, count int) []*Bitset {
	var s Slab
	return s.Carve(n, count)
}

// Slab is NewBitsetSlab's storage kept for reuse: one word array and the
// set headers carved from it. A long-lived owner that resizes often (the
// compat builder's adjacency rows, reset for every II and every inserted
// route node) carves its sets from a Slab so the words are allocated once
// and grown geometrically, not once per size. The zero value is empty.
type Slab struct {
	words []uint64
	sets  []Bitset
	ptrs  []*Bitset
}

// Carve returns count bitsets of capacity n over the slab's storage,
// invalidating the sets of the previous Carve. The storage grows to at least
// twice its size when the sets no longer fit. The sets are not cleared: they
// hold whatever the slab's words held, so the caller resets or overwrites
// every set before reading it. Sets carved from a fresh slab are empty.
func (s *Slab) Carve(n, count int) []*Bitset {
	if n < 0 || count < 0 {
		panic("graph: negative bitset slab size")
	}
	wpr := (n + 63) / 64
	if need := wpr * count; need > cap(s.words) {
		s.words = make([]uint64, max(need, 2*cap(s.words)))
	}
	if count > cap(s.sets) {
		s.sets = make([]Bitset, count)
		s.ptrs = make([]*Bitset, count)
	}
	s.sets, s.ptrs = s.sets[:count], s.ptrs[:count]
	for i := range s.sets {
		s.sets[i] = Bitset{words: s.words[i*wpr : (i+1)*wpr : (i+1)*wpr], n: n}
		s.ptrs[i] = &s.sets[i]
	}
	return s.ptrs
}

// Grow resizes the bitset to hold values 0..n-1 and clears it, reusing the
// word storage whenever it is large enough. Arena-style callers (the EMS
// placer's per-II occupancy masks, whose size is NumPEs*ii) call it instead
// of NewBitset so repeated attempts stop allocating.
func (b *Bitset) Grow(n int) {
	if n < 0 {
		panic("graph: negative bitset capacity")
	}
	want := (n + 63) / 64
	if want <= cap(b.words) {
		b.words = b.words[:want]
	} else {
		b.words = make([]uint64, want)
	}
	b.n = n
	b.Reset()
}

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	b.checkIndex(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.checkIndex(i)
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Has reports whether i is a member.
func (b *Bitset) Has(i int) bool {
	b.checkIndex(i)
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

func (b *Bitset) checkIndex(i int) {
	if i < 0 || i >= b.n {
		panic("graph: bitset index out of range")
	}
}

// Count returns the number of members.
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Words exposes the backing word slice for read-only bulk consumers
// (word-at-a-time hashing). Callers must not modify the slice.
func (b *Bitset) Words() []uint64 { return b.words }

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of src (capacities must match).
func (b *Bitset) CopyFrom(src *Bitset) {
	if b.n != src.n {
		panic("graph: bitset capacity mismatch")
	}
	copy(b.words, src.words)
}

// Or unions other into b in place.
func (b *Bitset) Or(other *Bitset) {
	if b.n != other.n {
		panic("graph: bitset capacity mismatch")
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// The At operations below take a set x in sparse form: x's word at[k] is
// xs[k] for ascending word indices at, and every word at no listed index is
// all ones. The clique engine stores an adjacency row this way, keeping
// only the words where a node's neighbourhood can have a gap.

// AndSpillAt intersects b with x and moves the members b loses into spill,
// which keeps only its own members inside x: spill = (spill ∩ x) ∪ (b \ x),
// then b = b ∩ x, in one pass over the listed words (an all-ones word of x
// changes neither set). Read b as the nodes missing no neighbour so far and
// spill as those missing exactly one: intersecting with one more
// neighbourhood x shifts every miss count up by one. The clique engine's
// add maintains its candidate and one-miss sets this way.
func (b *Bitset) AndSpillAt(at []int32, xs []uint64, spill *Bitset) {
	if b.n != spill.n {
		panic("graph: bitset capacity mismatch")
	}
	bw, sw := b.words, spill.words
	for k, i := range at {
		m, w := xs[k], bw[i]
		sw[i] = sw[i]&m | w&^m
		bw[i] = w & m
	}
}

// AndAt intersects b with x in place: only the listed words can change.
func (b *Bitset) AndAt(at []int32, xs []uint64) {
	for k, i := range at {
		b.words[i] &= xs[k]
	}
}

// AndNotAt removes x's members from b in place: b keeps only members in the
// listed words that x lacks, since every other word of x is all ones.
func (b *Bitset) AndNotAt(at []int32, xs []uint64) {
	next := 0 // the first word not yet visited
	for k, i := range at {
		clear(b.words[next:i])
		b.words[i] &^= xs[k]
		next = int(i) + 1
	}
	clear(b.words[next:])
}

// WordBounds returns the half-open range [lo, hi) of 64-bit word indices
// holding the set's members, or (0, 0) when the set is empty. Callers with
// clustered members (one operation's candidate ids occupy a contiguous
// range) read and write only those words, skipping the empty prefix and
// suffix of the word array.
func (b *Bitset) WordBounds() (lo, hi int) {
	for i, w := range b.words {
		if w != 0 {
			if hi == 0 {
				lo = i
			}
			hi = i + 1
		}
	}
	return lo, hi
}

// First returns the smallest member, or -1 when the set is empty.
func (b *Bitset) First() int {
	for wi, w := range b.words {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Empty reports whether the set has no members.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset removes all members.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill adds every value 0..n-1 to the set.
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := b.n & 63; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << uint(tail)) - 1
	}
}

// ForEach calls fn for each member in increasing order. If fn returns false
// the iteration stops early.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the members in increasing order.
func (b *Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
