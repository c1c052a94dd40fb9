// Package itemset implements the itemset algebra used by every mining
// algorithm in this library: immutable sorted integer itemsets, support-
// counted itemsets, and keyed families of itemsets.
//
// Items are dense non-negative integers assigned by the dataset layer;
// the dataset layer also owns the mapping back to human-readable names.
package itemset

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Itemset is a strictly increasing slice of item identifiers. The
// functions in this package never mutate their receivers or arguments;
// they return fresh slices where needed. Callers must preserve the
// sorted-unique invariant; Of normalizes arbitrary input.
type Itemset []int

// Of builds an itemset from arbitrary items, sorting and deduplicating.
func Of(items ...int) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Ints(s)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Empty is the canonical empty itemset.
func Empty() Itemset { return Itemset{} }

// Len returns the number of items.
func (s Itemset) Len() int { return len(s) }

// IsEmpty reports whether the itemset has no items.
func (s Itemset) IsEmpty() bool { return len(s) == 0 }

// Clone returns an independent copy.
func (s Itemset) Clone() Itemset {
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Contains reports whether x is a member (binary search).
func (s Itemset) Contains(x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// ContainsAll reports whether other ⊆ s (merge walk, O(len(s))).
func (s Itemset) ContainsAll(other Itemset) bool {
	if len(other) > len(s) {
		return false
	}
	i := 0
	for _, x := range other {
		for i < len(s) && s[i] < x {
			i++
		}
		if i >= len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Equal reports element-wise equality.
func (s Itemset) Equal(other Itemset) bool {
	if len(s) != len(other) {
		return false
	}
	for i, x := range s {
		if x != other[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets first by length, then lexicographically.
// This is the canonical order used for deterministic output.
func (s Itemset) Compare(other Itemset) int {
	if len(s) != len(other) {
		if len(s) < len(other) {
			return -1
		}
		return 1
	}
	for i, x := range s {
		if x != other[i] {
			if x < other[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CompareLex orders itemsets purely lexicographically (shorter prefix
// first), the order used by lectic enumeration.
func (s Itemset) CompareLex(other Itemset) int {
	n := len(s)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if s[i] != other[i] {
			if s[i] < other[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(other):
		return -1
	case len(s) > len(other):
		return 1
	}
	return 0
}

// Union returns s ∪ other as a new itemset.
func (s Itemset) Union(other Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns s ∩ other as a new itemset.
func (s Itemset) Intersect(other Itemset) Itemset {
	out := make(Itemset, 0)
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Diff returns s \ other as a new itemset.
func (s Itemset) Diff(other Itemset) Itemset {
	out := make(Itemset, 0, len(s))
	j := 0
	for _, x := range s {
		for j < len(other) && other[j] < x {
			j++
		}
		if j < len(other) && other[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// With returns s ∪ {x} as a new itemset.
func (s Itemset) With(x int) Itemset {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// Without returns s \ {x} as a new itemset.
func (s Itemset) Without(x int) Itemset {
	i := sort.SearchInts(s, x)
	if i >= len(s) || s[i] != x {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Subsets calls fn with every proper non-empty subset of s. It is meant
// for rule generation over modest itemset sizes; it panics beyond 30
// items to avoid silent combinatorial explosion.
func (s Itemset) Subsets(fn func(sub Itemset) bool) {
	if len(s) > 30 {
		panic(fmt.Sprintf("itemset: Subsets on %d items", len(s)))
	}
	n := len(s)
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		sub := make(Itemset, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, s[i])
			}
		}
		if !fn(sub) {
			return
		}
	}
}

// KSubsets calls fn with every subset of s of size k, in lexicographic
// order. fn may keep the slice; a fresh slice is passed each time.
func (s Itemset) KSubsets(k int, fn func(sub Itemset) bool) {
	if k < 0 || k > len(s) {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		sub := make(Itemset, k)
		for i, j := range idx {
			sub[i] = s[j]
		}
		if !fn(sub) {
			return
		}
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == len(s)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Key returns a compact string usable as a map key. Keys are injective:
// two itemsets share a key iff they are equal.
func (s Itemset) Key() string {
	return string(s.AppendKey(make([]byte, 0, len(s)*3)))
}

// AppendKey appends the bytes of Key to buf, so a caller composing a
// larger key can build it in a buffer of its own.
func (s Itemset) AppendKey(buf []byte) []byte {
	for _, x := range s {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// FromKey decodes a key produced by Key back into the itemset.
func FromKey(key string) (Itemset, error) {
	buf := []byte(key)
	var out Itemset
	for len(buf) > 0 {
		x, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("itemset: malformed key")
		}
		out = append(out, int(x))
		buf = buf[n:]
	}
	// Keys encode sorted itemsets; verify to catch foreign strings.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			return nil, fmt.Errorf("itemset: key not in canonical order")
		}
	}
	return out, nil
}

// String renders as "{1, 2, 3}"; the empty set renders as "∅".
func (s Itemset) String() string {
	if len(s) == 0 {
		return "∅"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}

// Format renders the itemset using the given item names; items without
// a name fall back to their numeric id.
func (s Itemset) Format(names []string) string {
	if len(s) == 0 {
		return "∅"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		if x >= 0 && x < len(names) && names[x] != "" {
			b.WriteString(names[x])
		} else {
			fmt.Fprintf(&b, "%d", x)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Counted pairs an itemset with its absolute support count.
type Counted struct {
	Items   Itemset
	Support int
}

// Sort orders a slice of Counted in the canonical (size, lex) order.
func Sort(list []Counted) {
	sort.Slice(list, func(i, j int) bool {
		return list[i].Items.Compare(list[j].Items) < 0
	})
}

// Family is a set of support-counted itemsets with O(1) lookup by value.
// The zero value is not usable; call NewFamily.
type Family struct {
	byKey map[string]int
	list  []Counted
}

// NewFamily returns an empty family.
func NewFamily() *Family {
	return &Family{byKey: map[string]int{}}
}

// Add inserts or overwrites the support of the given itemset.
func (f *Family) Add(items Itemset, support int) {
	k := items.Key()
	if i, ok := f.byKey[k]; ok {
		f.list[i].Support = support
		return
	}
	f.byKey[k] = len(f.list)
	f.list = append(f.list, Counted{Items: items, Support: support})
}

// Support returns the stored support of the itemset.
func (f *Family) Support(items Itemset) (int, bool) {
	i, ok := f.byKey[items.Key()]
	if !ok {
		return 0, false
	}
	return f.list[i].Support, true
}

// Contains reports membership.
func (f *Family) Contains(items Itemset) bool {
	_, ok := f.byKey[items.Key()]
	return ok
}

// Len returns the number of itemsets in the family.
func (f *Family) Len() int { return len(f.list) }

// All returns the itemsets in canonical (size, lex) order.
func (f *Family) All() []Counted {
	out := make([]Counted, len(f.list))
	copy(out, f.list)
	Sort(out)
	return out
}

// Levels groups the itemsets by size; Levels()[k] holds the k-itemsets
// (index 0 holds the empty set if present).
func (f *Family) Levels() [][]Counted {
	maxLen := 0
	for _, c := range f.list {
		if len(c.Items) > maxLen {
			maxLen = len(c.Items)
		}
	}
	levels := make([][]Counted, maxLen+1)
	for _, c := range f.list {
		levels[len(c.Items)] = append(levels[len(c.Items)], c)
	}
	for _, lv := range levels {
		Sort(lv)
	}
	return levels
}

// MaxSize returns the size of the largest itemset (0 for empty family).
func (f *Family) MaxSize() int {
	m := 0
	for _, c := range f.list {
		if len(c.Items) > m {
			m = len(c.Items)
		}
	}
	return m
}

// Equal reports whether two families hold exactly the same itemsets
// with the same supports.
func (f *Family) Equal(g *Family) bool {
	if f.Len() != g.Len() {
		return false
	}
	for _, c := range f.list {
		s, ok := g.Support(c.Items)
		if !ok || s != c.Support {
			return false
		}
	}
	return true
}
