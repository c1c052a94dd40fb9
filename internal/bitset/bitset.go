// Package bitset provides dense, fixed-width bitsets used throughout the
// library to represent object sets (extents, tidsets) and item sets
// (intents) of a binary data-mining context.
//
// A Set is a value type: the zero value is an empty set of width 0.
// All binary operations require operands of equal width; they panic
// otherwise, since mixing universes is always a programming error.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-width bitset over the universe {0, …, width-1}.
type Set struct {
	words []uint64
	width int
}

// New returns an empty set over a universe of the given width.
func New(width int) Set {
	if width < 0 {
		panic("bitset: negative width")
	}
	return Set{words: make([]uint64, (width+wordBits-1)/wordBits), width: width}
}

// Over returns a set of the given width stored in words, which the
// caller owns: no copy is made, so writes through the set land in
// words and vice versa. len(words) must be exactly the word count of
// width. It lets a caller carve many same-width sets out of one slab
// it reuses, where New would allocate each.
func Over(words []uint64, width int) Set {
	if width < 0 || len(words) != (width+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitset: %d words for width %d", len(words), width))
	}
	return Set{words: words, width: width}
}

// Full returns the set containing every element of the universe.
func Full(width int) Set {
	s := New(width)
	s.Fill()
	return s
}

// FromSlice returns a set of the given width containing exactly the
// listed elements.
func FromSlice(width int, elems []int) Set {
	s := New(width)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Width reports the width of the universe.
func (s Set) Width() int { return s.width }

// Add inserts x into the set.
func (s Set) Add(x int) {
	s.check(x)
	s.words[x/wordBits] |= 1 << (uint(x) % wordBits)
}

// Remove deletes x from the set.
func (s Set) Remove(x int) {
	s.check(x)
	s.words[x/wordBits] &^= 1 << (uint(x) % wordBits)
}

// Has reports whether x is in the set.
func (s Set) Has(x int) bool {
	s.check(x)
	return s.words[x/wordBits]&(1<<(uint(x)%wordBits)) != 0
}

func (s Set) check(x int) {
	if x < 0 || x >= s.width {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", x, s.width))
	}
}

// Count returns the cardinality of the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Copy overwrites s with the contents of t (equal widths required)
// without allocating — the reuse counterpart of Clone.
func (s Set) Copy(t Set) {
	s.sameWidth(t)
	copy(s.words, t.words)
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), width: s.width}
	copy(c.words, s.words)
	return c
}

// Fill adds every element of the universe to the set.
func (s Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clear removes all elements.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the bits beyond width in the last word.
func (s Set) trim() {
	if s.width%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.width) % wordBits)) - 1
	}
}

func (s Set) sameWidth(t Set) {
	if s.width != t.width {
		panic(fmt.Sprintf("bitset: width mismatch %d vs %d", s.width, t.width))
	}
}

// And replaces s with s ∩ t.
func (s Set) And(t Set) {
	s.sameWidth(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Or replaces s with s ∪ t.
func (s Set) Or(t Set) {
	s.sameWidth(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// AndNot replaces s with s \ t.
func (s Set) AndNot(t Set) {
	s.sameWidth(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// IntersectionCount returns |s ∩ t| by popcounting the word-wise AND —
// no allocation and no mutation. It is the support probe of the
// vertical miners: most candidate extensions only need the cardinality
// of an intersection, never the intersection itself.
//
//ar:noalloc
func (s Set) IntersectionCount(t Set) int {
	s.sameWidth(t)
	n := 0
	for i, w := range s.words {
		n += bits.OnesCount64(w & t.words[i])
	}
	return n
}

// IntersectionAtLeast reports whether |s ∩ t| ≥ k, returning as soon
// as the partial popcount reaches k. It is the thresholded variant of
// IntersectionCount for minimum-support pruning, where a surviving
// extension never needs the exact cardinality: probes that pass exit
// after a prefix of the words, and only failing probes pay the full
// scan.
//
//ar:noalloc
func (s Set) IntersectionAtLeast(t Set, k int) bool {
	s.sameWidth(t)
	if k <= 0 {
		return true
	}
	// Popcount in branch-free blocks of 8 words and only then test the
	// threshold: a per-word test would stall the popcount pipeline on
	// the (common) failing probes that must scan everything anyway.
	n, i := 0, 0
	for ; i+8 <= len(s.words); i += 8 {
		n += bits.OnesCount64(s.words[i]&t.words[i]) +
			bits.OnesCount64(s.words[i+1]&t.words[i+1]) +
			bits.OnesCount64(s.words[i+2]&t.words[i+2]) +
			bits.OnesCount64(s.words[i+3]&t.words[i+3]) +
			bits.OnesCount64(s.words[i+4]&t.words[i+4]) +
			bits.OnesCount64(s.words[i+5]&t.words[i+5]) +
			bits.OnesCount64(s.words[i+6]&t.words[i+6]) +
			bits.OnesCount64(s.words[i+7]&t.words[i+7])
		if n >= k {
			return true
		}
	}
	for ; i < len(s.words); i++ {
		n += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return n >= k
}

// AndInto sets dst = a ∩ b without allocating. All three sets must
// share one width, and dst must not alias a or b: the implementation
// reserves the right to reorder or vectorize the word loop, which is
// only safe when the destination is distinct. It returns dst for
// chaining.
//
//ar:noalloc
func (dst Set) AndInto(a, b Set) Set {
	a.sameWidth(b)
	dst.sameWidth(a)
	for i, w := range a.words {
		dst.words[i] = w & b.words[i]
	}
	return dst
}

// OrInto sets dst = a ∪ b without allocating, under the same
// no-aliasing and width contract as AndInto.
//
//ar:noalloc
func (dst Set) OrInto(a, b Set) Set {
	a.sameWidth(b)
	dst.sameWidth(a)
	for i, w := range a.words {
		dst.words[i] = w | b.words[i]
	}
	return dst
}

// AndNotInto sets dst = a ∖ b without allocating, under the same
// no-aliasing and width contract as AndInto.
//
//ar:noalloc
func (dst Set) AndNotInto(a, b Set) Set {
	a.sameWidth(b)
	dst.sameWidth(a)
	for i, w := range a.words {
		dst.words[i] = w &^ b.words[i]
	}
	return dst
}

// AndNotCount returns |a ∖ b| (the size of the diffset) without
// allocating — the diffset analogue of IntersectionCount.
//
//ar:noalloc
func (s Set) AndNotCount(t Set) int {
	s.sameWidth(t)
	n := 0
	for i, w := range s.words {
		n += bits.OnesCount64(w &^ t.words[i])
	}
	return n
}

// NextInAll returns the smallest element ≥ x that belongs to every
// set, or -1 if none does — the first bit of the sets' intersection,
// found word by word without materializing it, so a hit in an early
// word never touches the rest. sets must be non-empty and share one
// width.
//
//ar:noalloc
func NextInAll(sets []Set, x int) int {
	first := sets[0]
	for _, t := range sets[1:] {
		first.sameWidth(t)
	}
	if x < 0 {
		x = 0
	}
	if x >= first.width {
		return -1
	}
	for i := x / wordBits; i < len(first.words); i++ {
		w := first.words[i]
		if i == x/wordBits {
			w &= ^uint64(0) << (uint(x) % wordBits)
		}
		for _, t := range sets[1:] {
			if w == 0 {
				break
			}
			w &= t.words[i]
		}
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AndNotAll removes from s every element ≥ x that belongs to all of
// sets: s ∖= (∩ sets) restricted to [x, width). A word whose partial
// intersection empties stops early. sets must be non-empty and share
// s's width.
//
//ar:noalloc
func (s Set) AndNotAll(sets []Set, x int) {
	for _, t := range sets {
		s.sameWidth(t)
	}
	if x < 0 {
		x = 0
	}
	if x >= s.width {
		return
	}
	for i := x / wordBits; i < len(s.words); i++ {
		w := s.words[i]
		if i == x/wordBits {
			w &= ^uint64(0) << (uint(x) % wordBits)
		}
		for _, t := range sets {
			if w == 0 {
				break
			}
			w &= t.words[i]
		}
		s.words[i] &^= w
	}
}

// Intersect returns a new set s ∩ t.
func (s Set) Intersect(t Set) Set {
	s.sameWidth(t)
	r := Set{words: make([]uint64, len(s.words)), width: s.width}
	for i, w := range s.words {
		r.words[i] = w & t.words[i]
	}
	return r
}

// Union returns a new set s ∪ t.
func (s Set) Union(t Set) Set {
	s.sameWidth(t)
	r := Set{words: make([]uint64, len(s.words)), width: s.width}
	for i, w := range s.words {
		r.words[i] = w | t.words[i]
	}
	return r
}

// Difference returns a new set s \ t.
func (s Set) Difference(t Set) Set {
	s.sameWidth(t)
	r := Set{words: make([]uint64, len(s.words)), width: s.width}
	for i, w := range s.words {
		r.words[i] = w &^ t.words[i]
	}
	return r
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	if s.width != t.width {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// IsSubset reports whether every element of s is in t. It is a synonym
// of IsSubsetOf, kept for symmetry with IsProperSubset.
func (s Set) IsSubset(t Set) bool { return s.IsSubsetOf(t) }

// IsSubsetOf reports whether s ⊆ t with a single word-wise pass and no
// allocation — the containment probe behind CHARM's four tidset
// properties.
//
//ar:noalloc
func (s Set) IsSubsetOf(t Set) bool {
	s.sameWidth(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// IsProperSubset reports whether s ⊂ t strictly.
func (s Set) IsProperSubset(t Set) bool {
	return s.IsSubset(t) && !s.Equal(t)
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	s.sameWidth(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for each element in ascending order. If fn returns
// false the iteration stops early.
func (s Set) ForEach(fn func(x int) bool) {
	for i, w := range s.words {
		base := i * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(base + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Next returns the smallest element ≥ x, or -1 if none exists.
func (s Set) Next(x int) int {
	if x < 0 {
		x = 0
	}
	if x >= s.width {
		return -1
	}
	i := x / wordBits
	w := s.words[i] >> (uint(x) % wordBits)
	if w != 0 {
		return x + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(s.words[i])
		}
	}
	return -1
}

// Prev returns the largest element ≤ x, or -1 if none exists: Next
// walking downward, so a descending scan skips empty words whole.
//
//ar:noalloc
func (s Set) Prev(x int) int {
	if x >= s.width {
		x = s.width - 1
	}
	if x < 0 {
		return -1
	}
	i := x / wordBits
	w := s.words[i] << (wordBits - 1 - uint(x)%wordBits)
	if w != 0 {
		return x - bits.LeadingZeros64(w)
	}
	for i--; i >= 0; i-- {
		if s.words[i] != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(s.words[i])
		}
	}
	return -1
}

// Slice returns the elements in ascending order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(x int) bool {
		out = append(out, x)
		return true
	})
	return out
}

// Hash returns a 64-bit FNV-1a style hash of the set contents, suitable
// for bucketing sets by value (e.g. CHARM's closedness check).
func (s Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		for b := 0; b < 8; b++ {
			h ^= (w >> (8 * uint(b))) & 0xff
			h *= prime
		}
	}
	return h
}

// String renders the set as "{e1, e2, …}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(x int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", x)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
