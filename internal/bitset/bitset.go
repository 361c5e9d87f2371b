// Package bitset provides dense, fixed-capacity bit sets.
//
// Bit sets are the world-set representation used throughout the epistemic
// model checker: a formula's denotation in a finite Kripke model is the set
// of worlds at which it holds, and the fixed-point semantics of Appendix A
// of Halpern & Moses is computed by iterating set-valued functions. All
// operations are O(capacity/64).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, Cap).
//
// The zero value is an empty set of capacity zero; use New to create a set
// with a given capacity. Binary operations require both operands to have the
// same capacity.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns the set {0, 1, ..., n-1}.
func NewFull(n int) *Set {
	s := New(n)
	s.Fill()
	return s
}

// Cap returns the capacity of the universe.
func (s *Set) Cap() int { return s.n }

// Contains reports whether i is a member of the set. Out-of-range indices
// are never members.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Add inserts i into the set. Out-of-range indices are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. Out-of-range indices are ignored.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// AddRange inserts every element in the half-open interval [lo, hi) into
// the set, whole words at a time. Out-of-range portions are ignored.
func (s *Set) AddRange(lo, hi int) {
	lo, hi = max(lo, 0), min(hi, s.n)
	for lo < hi {
		wi := lo / wordBits
		m := ^uint64(0) << (uint(lo) % wordBits)
		if end := (wi + 1) * wordBits; hi < end {
			m &= ^uint64(0) >> (uint(end - hi))
		}
		s.words[wi] |= m
		lo = (wi + 1) * wordBits
	}
}

// Fill adds every element of the universe to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clear removes every element from the set.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that Count, Equal and
// IsFull remain exact.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsFull reports whether the set contains the whole universe.
func (s *Set) IsFull() bool { return s.Count() == s.n }

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of other. The capacities must match.
func (s *Set) Copy(other *Set) {
	s.mustMatch(other)
	copy(s.words, other.words)
}

// Equal reports whether s and other contain exactly the same elements.
// Sets of different capacity are never equal.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// And replaces s with s ∩ other.
func (s *Set) And(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// Or replaces s with s ∪ other.
func (s *Set) Or(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
}

// AndNot replaces s with s \ other.
func (s *Set) AndNot(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// Xor replaces s with the symmetric difference s △ other.
func (s *Set) Xor(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] ^= other.words[i]
	}
}

// Not replaces s with its complement relative to the universe.
func (s *Set) Not() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// ContainsAll reports whether s is a superset of other (other ⊆ s) — the
// flipped form of SubsetOf, reading in argument order. One AND-NOT per
// word, no per-element probing.
func (s *Set) ContainsAll(other *Set) bool {
	s.mustMatch(other)
	for i, w := range other.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is also in other.
func (s *Set) SubsetOf(other *Set) bool {
	s.mustMatch(other)
	for i, w := range s.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and other share at least one element.
func (s *Set) Intersects(other *Set) bool {
	s.mustMatch(other)
	for i, w := range s.words {
		if w&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for each element of the set in increasing order. If fn
// returns false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements returns the members of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Next returns the smallest element >= i, or -1 if there is none.
func (s *Set) Next(i int) int {
	if n := s.NextBefore(i, s.n); n < s.n {
		return n
	}
	return -1
}

// NextBefore returns the smallest element in [i, hi), or hi if there is
// none. It reads whole words and stops at hi, so a scan confined to a
// range costs that range's words, however sparse the rest of the set.
func (s *Set) NextBefore(i, hi int) int {
	i = max(i, 0)
	for end := min(hi, s.n); i < end; i = (i/wordBits + 1) * wordBits {
		if w := s.words[i/wordBits] >> (uint(i) % wordBits); w != 0 {
			return min(i+bits.TrailingZeros64(w), hi)
		}
	}
	return hi
}

// NextSet returns the smallest element >= i together with true, or (0,
// false) if no element >= i exists — the explicit-ok twin of Next, for
// callers that would otherwise have to treat -1 as a sentinel.
func (s *Set) NextSet(i int) (int, bool) {
	n := s.Next(i)
	if n < 0 {
		return 0, false
	}
	return n, true
}

// Words exposes the backing word slice of the set: bit i of Words()[i/64]
// is set iff i is a member. The slice is shared with the set, not a copy —
// callers may read and write it to implement word-level kernels, but must
// not set bits at or beyond Cap() (use WordMask for the final partial
// word).
func (s *Set) Words() []uint64 { return s.words }

// WordMask returns the mask of in-universe bits for word wi: all ones for
// interior words and the partial mask for the final word of a capacity that
// is not a multiple of 64.
func (s *Set) WordMask(wi int) uint64 {
	if wi == len(s.words)-1 && s.n%wordBits != 0 {
		return (1 << (uint(s.n) % wordBits)) - 1
	}
	return ^uint64(0)
}

// String renders the set as "{e1, e2, ...}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) mustMatch(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
}

// And returns a ∩ b as a new set.
func And(a, b *Set) *Set {
	c := a.Clone()
	c.And(b)
	return c
}

// Or returns a ∪ b as a new set.
func Or(a, b *Set) *Set {
	c := a.Clone()
	c.Or(b)
	return c
}

// Not returns the complement of a as a new set.
func Not(a *Set) *Set {
	c := a.Clone()
	c.Not()
	return c
}

// AndNot returns a \ b as a new set.
func AndNot(a, b *Set) *Set {
	c := a.Clone()
	c.AndNot(b)
	return c
}
