// Package closedset defines the result type shared by all closed-
// itemset miners: a set of frequent closed itemsets FC with supports
// and (optionally) their minimal generators, plus the closure lookup
// h(X) = smallest element of FC containing X that underpins basis
// construction and rule derivation.
package closedset

import (
	"sort"
	"sync"

	"closedrules/internal/bitset"
	"closedrules/internal/itemset"
)

// Closed is one frequent closed itemset with its absolute support and
// the minimal generators discovered for it (possibly empty when the
// miner does not track generators).
type Closed struct {
	Items      itemset.Itemset
	Support    int
	Generators []itemset.Itemset
}

// Set is a collection of frequent closed itemsets keyed by value.
// The zero value is not usable; call New. A Set is safe for concurrent
// reads once mining has finished; mutation (Add, AddGenerator) must
// not run concurrently with anything else.
type Set struct {
	byKey map[string]int
	list  []Closed

	mu  sync.Mutex // guards the lazily built index
	idx *Index     // FC posting index; nil when stale
}

// New returns an empty set.
func New() *Set {
	return &Set{byKey: map[string]int{}}
}

// FromSlice rebuilds a Set from a flat list of closed itemsets (the
// exchange form used by the miner registry and the persistence layer),
// preserving supports and generators. The map and the list are sized
// for items up front, so building grows neither.
func FromSlice(items []Closed) *Set {
	s := &Set{byKey: make(map[string]int, len(items)), list: make([]Closed, 0, len(items))}
	for _, c := range items {
		s.Add(c.Items, c.Support)
		for _, g := range c.Generators {
			s.AddGenerator(c.Items, c.Support, g)
		}
	}
	return s
}

// Add inserts a closed itemset or updates its support if present.
func (s *Set) Add(items itemset.Itemset, support int) {
	k := items.Key()
	if i, ok := s.byKey[k]; ok {
		s.list[i].Support = support
		return
	}
	s.byKey[k] = len(s.list)
	s.list = append(s.list, Closed{Items: items, Support: support})
	s.idx = nil
}

// AddGenerator records gen as a (minimal) generator of the closed
// itemset; the closed itemset is created with the given support if
// missing. Duplicate generators are ignored.
func (s *Set) AddGenerator(items itemset.Itemset, support int, gen itemset.Itemset) {
	k := items.Key()
	i, ok := s.byKey[k]
	if !ok {
		s.Add(items, support)
		i = s.byKey[k]
	}
	for _, g := range s.list[i].Generators {
		if g.Equal(gen) {
			return
		}
	}
	s.list[i].Generators = append(s.list[i].Generators, gen)
}

// Len returns |FC|.
func (s *Set) Len() int { return len(s.list) }

// HasGenerators reports whether every closed itemset carries at least
// one minimal generator — true for the output of generator-tracking
// miners (close, a-close, titanic, genclose), false for the bare
// families the vertical miners return. An empty set vacuously has
// generators.
func (s *Set) HasGenerators() bool {
	for i := range s.list {
		if len(s.list[i].Generators) == 0 {
			return false
		}
	}
	return true
}

// Contains reports whether items is one of the closed itemsets.
func (s *Set) Contains(items itemset.Itemset) bool {
	_, ok := s.byKey[items.Key()]
	return ok
}

// Support returns the support of the closed itemset.
func (s *Set) Support(items itemset.Itemset) (int, bool) {
	i, ok := s.byKey[items.Key()]
	if !ok {
		return 0, false
	}
	return s.list[i].Support, true
}

// Get returns the full record of the closed itemset.
func (s *Set) Get(items itemset.Itemset) (Closed, bool) {
	i, ok := s.byKey[items.Key()]
	if !ok {
		return Closed{}, false
	}
	return s.list[i], true
}

// Index returns the FC posting index, building it on first use after
// the set last grew.
func (s *Set) Index() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		s.idx = newIndex(s.list)
	}
	return s.idx
}

// Each calls fn for every closed itemset in unspecified order,
// stopping early when fn returns false. Unlike All it neither sorts
// nor copies, so hot paths that only need to see every element — not
// canonical order — pay nothing per call.
func (s *Set) Each(fn func(Closed) bool) {
	for _, c := range s.list {
		if !fn(c) {
			return
		}
	}
}

// All returns the closed itemsets in canonical (size, lex) order.
func (s *Set) All() []Closed {
	order := s.Index().order
	out := make([]Closed, len(order))
	for id, pos := range order {
		out[id] = s.list[pos]
	}
	return out
}

// ClosureOf returns h(X): the smallest closed itemset of the set
// containing X. The second result is false when no element contains X
// (X is not frequent at the mining threshold, or the set is
// incomplete). Because FC is closed under intersection, the smallest
// container is unique whenever it exists.
//
// An itemset that is itself closed — the common case on serving paths,
// where queries arrive straight from basis rules — is answered by one
// key lookup; any other is the first id of X's up-set (Index.First).
func (s *Set) ClosureOf(x itemset.Itemset) (Closed, bool) {
	if i, ok := s.byKey[x.Key()]; ok {
		return s.list[i], true
	}
	idx := s.Index()
	id := idx.First(x, 0)
	if id < 0 {
		return Closed{}, false
	}
	return s.list[idx.order[id]], true
}

// SupportOf returns supp(X) = supp(h(X)) for any itemset X contained
// in some closed itemset of the set.
func (s *Set) SupportOf(x itemset.Itemset) (int, bool) {
	c, ok := s.ClosureOf(x)
	if !ok {
		return 0, false
	}
	return c.Support, true
}

// Maximal returns the maximal closed itemsets (the maximal frequent
// itemsets, by the paper's §2 property), in canonical order. A set is
// maximal when its up-set holds only itself: no id after its own.
func (s *Set) Maximal() []Closed {
	idx := s.Index()
	var out []Closed
	for id, pos := range idx.order {
		if c := s.list[pos]; idx.First(c.Items, id+1) < 0 {
			out = append(out, c)
		}
	}
	return out
}

// Bottom returns the least closed itemset, h(∅). A complete mining run
// always contains it, and every other element is a superset. The bool
// result is false when the set is empty or no element is contained in
// all others (an incomplete set).
func (s *Set) Bottom() (Closed, bool) {
	if len(s.list) == 0 {
		return Closed{}, false
	}
	idx := s.Index()
	bot := s.list[idx.order[0]]
	up := bitset.New(idx.Len())
	idx.UpSet(up, bot.Items)
	return bot, up.Count() == idx.Len()
}

// Equal reports whether two sets contain the same closed itemsets with
// the same supports (generators are not compared).
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for _, c := range s.list {
		sup, ok := t.Support(c.Items)
		if !ok || sup != c.Support {
			return false
		}
	}
	return true
}

// AllGenerators returns every (generator, closure) pair, in canonical
// order of the generator. Closed itemsets that equal their unique
// generator (free closed sets) are included.
func (s *Set) AllGenerators() []GeneratorOf {
	var out []GeneratorOf
	for _, c := range s.list {
		for _, g := range c.Generators {
			out = append(out, GeneratorOf{Generator: g, Closure: c.Items, Support: c.Support})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if cmp := out[a].Generator.Compare(out[b].Generator); cmp != 0 {
			return cmp < 0
		}
		return out[a].Closure.Compare(out[b].Closure) < 0
	})
	return out
}

// GeneratorOf links a minimal generator to its closure.
type GeneratorOf struct {
	Generator itemset.Itemset
	Closure   itemset.Itemset
	Support   int
}
