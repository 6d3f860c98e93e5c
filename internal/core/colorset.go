// Package core implements the paper's two contributions on top of the
// matching-discovery automaton and the synchronous message-passing
// substrate:
//
//   - Algorithm 1: distributed edge coloring of an undirected graph
//     (ColorEdges). At most 2Δ-1 colors, O(Δ) computation rounds,
//     one-hop information.
//   - Algorithm 2 (DiMa2Ed): distributed strong (distance-2) edge
//     coloring of a symmetric digraph (ColorStrong), with the
//     claim/confirm exchange correction described in DESIGN.md.
//
// Both algorithms are implemented as net.Node state machines whose
// states are validated against the automaton's transition table, so any
// deviation from the paper's state diagram panics in tests.
package core

import "math/bits"

// ColorSet is a growable bit set over non-negative color indices. The
// zero value is an empty set ready for use. Colors below 64 live in an
// inline word, so a set over a palette of at most 64 colors — every
// coloring of a graph with Δ ≤ 32 — never allocates.
type ColorSet struct {
	lo uint64   // colors 0..63
	hi []uint64 // hi[i] holds colors 64(i+1) .. 64(i+1)+63
}

// palette counts distinct colors without a bitmap as wide as the
// largest: colors below limit (the run's item count, which bounds every
// honest palette's size) go into a ColorSet, and the rest, which only a
// hostile node process's state blob can carry, into a map. A color
// near MaxInt32 thus costs one map entry, not a 256 MB bitmap.
type palette struct {
	low   ColorSet
	limit int
	high  map[int]struct{}
}

func (p *palette) add(c int) {
	if c < p.limit {
		p.low.Add(c)
		return
	}
	if p.high == nil {
		p.high = map[int]struct{}{}
	}
	p.high[c] = struct{}{}
}

func (p *palette) count() int { return p.low.Count() + len(p.high) }

// word returns the w-th 64-color word of the set (zero past the end).
func (s *ColorSet) word(w int) uint64 {
	if w == 0 {
		return s.lo
	}
	if w-1 < len(s.hi) {
		return s.hi[w-1]
	}
	return 0
}

// words returns the number of words that may hold colors.
func (s *ColorSet) words() int { return 1 + len(s.hi) }

// Add inserts color c. It panics on negative colors, which would
// indicate a protocol bug.
func (s *ColorSet) Add(c int) {
	if c < 0 {
		panic("core: negative color")
	}
	if c < 64 {
		s.lo |= 1 << uint(c)
		return
	}
	w := c>>6 - 1
	for len(s.hi) <= w {
		s.hi = append(s.hi, 0)
	}
	s.hi[w] |= 1 << (uint(c) & 63)
}

// Has reports whether color c is in the set.
func (s *ColorSet) Has(c int) bool {
	if c < 0 {
		return false
	}
	return s.word(c>>6)&(1<<(uint(c)&63)) != 0
}

// Count returns the number of colors in the set.
func (s *ColorSet) Count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Max returns the largest color in the set, or -1 if empty.
func (s *ColorSet) Max() int {
	for i := s.words() - 1; i >= 0; i-- {
		if w := s.word(i); w != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// AddSet inserts every color of t into s. Nil t is a no-op.
func (s *ColorSet) AddSet(t *ColorSet) {
	if t == nil {
		return
	}
	s.lo |= t.lo
	for len(s.hi) < len(t.hi) {
		s.hi = append(s.hi, 0)
	}
	for i, w := range t.hi {
		s.hi[i] |= w
	}
}

// Clone returns an independent copy of s.
func (s *ColorSet) Clone() *ColorSet {
	return &ColorSet{lo: s.lo, hi: append([]uint64(nil), s.hi...)}
}

// LowestFree returns the smallest color contained in none of the given
// sets — the paper's "lowest indexed color available" rule (line 1.11).
// Nil sets are permitted and treated as empty.
func LowestFree(sets ...*ColorSet) int {
	for w := 0; ; w++ {
		var used uint64
		for _, s := range sets {
			if s != nil {
				used |= s.word(w)
			}
		}
		if used != ^uint64(0) {
			return w<<6 + bits.TrailingZeros64(^used)
		}
	}
}

// FreeBelow returns all colors in [0, bound) contained in none of the
// given sets, in increasing order.
func FreeBelow(bound int, sets ...*ColorSet) []int {
	var free []int
	for c := 0; c < bound; c++ {
		ok := true
		for _, s := range sets {
			if s != nil && s.Has(c) {
				ok = false
				break
			}
		}
		if ok {
			free = append(free, c)
		}
	}
	return free
}

// freeWord returns the w-th word of free colors in [0, bound): the
// colors contained in none of the sets.
func freeWord(w, bound int, sets []*ColorSet) uint64 {
	var used uint64
	for _, s := range sets {
		if s != nil {
			used |= s.word(w)
		}
	}
	free := ^used
	if rem := bound - w<<6; rem < 64 {
		free &= 1<<uint(rem) - 1
	}
	return free
}

// CountFreeBelow returns len(FreeBelow(bound, sets...)) without building
// the list.
func CountFreeBelow(bound int, sets ...*ColorSet) int {
	n := 0
	for w := 0; w<<6 < bound; w++ {
		n += bits.OnesCount64(freeWord(w, bound, sets))
	}
	return n
}

// NthFreeBelow returns FreeBelow(bound, sets...)[k] without building the
// list, or -1 if there are at most k free colors. With CountFreeBelow it
// draws a uniform free color in two passes and no buffer.
func NthFreeBelow(bound, k int, sets ...*ColorSet) int {
	for w := 0; w<<6 < bound; w++ {
		free := freeWord(w, bound, sets)
		if n := bits.OnesCount64(free); k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			free &= free - 1
		}
		return w<<6 + bits.TrailingZeros64(free)
	}
	return -1
}

// MaxOf returns the largest color across the given sets, or -1 if all
// are empty.
func MaxOf(sets ...*ColorSet) int {
	m := -1
	for _, s := range sets {
		if s == nil {
			continue
		}
		if v := s.Max(); v > m {
			m = v
		}
	}
	return m
}
