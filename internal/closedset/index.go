package closedset

import (
	"sort"

	"closedrules/internal/bitset"
	"closedrules/internal/itemset"
)

// Index is the FC posting index of a Set. Ids number the closed
// itemsets in canonical (size, lex) order — the order of All — and
// every item occurring in FC has a posting: the bitset of the ids whose
// set holds it. The AND of X's postings is X's up-set, every closed
// superset of X; because ids ascend in size, its first id is h(X).
// Closure, Maximal, the iceberg lattice and the pseudo-closed
// enumeration all read this one index.
//
// An Index is immutable once built and safe for concurrent use. It is
// built lazily by Set.Index and dropped when Add grows the set.
type Index struct {
	order    []int        // id → position in Set.list
	items    []int        // items occurring in FC, ascending
	slot     map[int]int  // item → position in items
	postings []bitset.Set // position in items → ids holding the item
	all      bitset.Set   // every id: the up-set of ∅
}

func newIndex(list []Closed) *Index {
	order := make([]int, len(list))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return list[order[a]].Items.Compare(list[order[b]].Items) < 0
	})
	x := &Index{order: order, slot: map[int]int{}, all: bitset.Full(len(list))}
	for _, c := range list {
		for _, it := range c.Items {
			if _, ok := x.slot[it]; !ok {
				x.slot[it] = 0
				x.items = append(x.items, it)
			}
		}
	}
	sort.Ints(x.items)
	x.postings = make([]bitset.Set, len(x.items))
	for j, it := range x.items {
		x.slot[it] = j
		x.postings[j] = bitset.New(len(list))
	}
	for id, pos := range order {
		for _, it := range list[pos].Items {
			x.postings[x.slot[it]].Add(id)
		}
	}
	return x
}

// Len returns the number of ids, |FC|.
func (x *Index) Len() int { return len(x.order) }

// Items returns the items occurring in FC in ascending order; position
// j in it is the item whose posting is PostingAt(j). Callers must not
// mutate the slice.
func (x *Index) Items() []int { return x.items }

// Slot returns the position of item in Items, or false when no closed
// itemset holds it.
func (x *Index) Slot(item int) (int, bool) {
	j, ok := x.slot[item]
	return j, ok
}

// PostingAt returns the posting of Items()[j]. Callers must not mutate
// it.
func (x *Index) PostingAt(j int) bitset.Set { return x.postings[j] }

// Postings appends the postings of items to dst and returns it; ok is
// false when some item occurs in no closed itemset (its up-set is then
// empty). With bitset.NextInAll and AndNotAll the result probes an
// up-set word by word without materializing it.
func (x *Index) Postings(dst []bitset.Set, items itemset.Itemset) ([]bitset.Set, bool) {
	for _, it := range items {
		j, ok := x.slot[it]
		if !ok {
			return dst, false
		}
		dst = append(dst, x.postings[j])
	}
	return dst, true
}

// UpSet writes into dst (width Len()) the ids of the closed itemsets
// that contain items: the AND of their postings, all ids for ∅.
func (x *Index) UpSet(dst bitset.Set, items itemset.Itemset) {
	dst.Copy(x.all)
	for _, it := range items {
		j, ok := x.slot[it]
		if !ok {
			dst.Clear()
			return
		}
		dst.And(x.postings[j])
	}
}

// first returns the smallest id ≥ from whose set contains items, or -1.
func (x *Index) first(items itemset.Itemset, from int) int {
	var buf [16]bitset.Set
	ps, ok := x.Postings(buf[:0], items)
	if !ok {
		return -1
	}
	if len(ps) == 0 {
		ps = append(ps, x.all)
	}
	return bitset.NextInAll(ps, from)
}
