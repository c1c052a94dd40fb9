// Package dataset implements the data-mining context of the paper: a
// triplet D = (O, I, R) where O is a finite set of objects
// (transactions), I a finite set of items and R ⊆ O×I a binary
// relation. It provides the transaction-list view used by level-wise
// miners and the bitset (binary context) view used by the Galois
// operators, plus readers/writers for the common interchange formats.
package dataset

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"closedrules/internal/bitset"
	"closedrules/internal/itemset"
)

// Dataset is an immutable transaction database over items 0..NumItems-1.
type Dataset struct {
	tx       []itemset.Itemset
	numItems int
	names    []string // optional, indexed by item id; nil if unnamed

	// ctxc caches the binary-matrix view across Context calls. It is a
	// pointer so derived datasets that share tx (WithNames) share the
	// cache, and so copying the struct never copies a sync.Once.
	ctxc *ctxCache
}

// ctxCache builds the binary context at most once per dataset.
type ctxCache struct {
	once sync.Once
	c    *Context
}

// FromTransactions builds a dataset from raw transactions. Each
// transaction is sorted and deduplicated; items must be non-negative.
// numItems is inferred as max item + 1.
func FromTransactions(raw [][]int) (*Dataset, error) {
	return FromTransactionsN(raw, 0)
}

// FromTransactionsN builds a dataset with an explicit item-universe
// size; numItems is grown if a transaction mentions a larger item.
func FromTransactionsN(raw [][]int, numItems int) (*Dataset, error) {
	if numItems < 0 {
		return nil, fmt.Errorf("dataset: negative numItems %d", numItems)
	}
	d := &Dataset{tx: make([]itemset.Itemset, 0, len(raw)), numItems: numItems, ctxc: &ctxCache{}}
	var buf []int
	for i, t := range raw {
		for _, x := range t {
			if x < 0 {
				return nil, fmt.Errorf("dataset: transaction %d has negative item %d", i, x)
			}
		}
		buf = append(buf[:0], t...)
		d.appendTx(buf)
	}
	return d, nil
}

// appendTx appends t to d's transactions as one sorted, deduplicated,
// exact-size itemset and raises d.numItems past its largest item. It
// sorts t in place; t must hold no negative item.
func (d *Dataset) appendTx(t []int) {
	if !slices.IsSorted(t) {
		slices.Sort(t)
	}
	t = slices.Compact(t)
	if len(t) > 0 && t[len(t)-1]+1 > d.numItems {
		d.numItems = t[len(t)-1] + 1
	}
	d.tx = append(d.tx, append(make(itemset.Itemset, 0, len(t)), t...))
}

// WithNames attaches item names. len(names) must be ≥ NumItems.
func (d *Dataset) WithNames(names []string) (*Dataset, error) {
	if len(names) < d.numItems {
		return nil, fmt.Errorf("dataset: %d names for %d items", len(names), d.numItems)
	}
	nd := *d
	nd.names = names
	return &nd, nil
}

// NumTransactions returns the number of objects |O|.
func (d *Dataset) NumTransactions() int { return len(d.tx) }

// NumItems returns the number of items |I|.
func (d *Dataset) NumItems() int { return d.numItems }

// Transaction returns the i-th transaction (shared slice; do not mutate).
func (d *Dataset) Transaction(i int) itemset.Itemset { return d.tx[i] }

// Transactions returns all transactions (shared slices; do not mutate).
func (d *Dataset) Transactions() []itemset.Itemset { return d.tx }

// Names returns the item-name table, or nil if the dataset is unnamed.
func (d *Dataset) Names() []string { return d.names }

// ItemName returns the name of an item, falling back to its id.
func (d *Dataset) ItemName(item int) string {
	if d.names != nil && item >= 0 && item < len(d.names) && d.names[item] != "" {
		return d.names[item]
	}
	return fmt.Sprintf("%d", item)
}

// AbsoluteSupport converts a relative minimum support in (0,1] to an
// absolute count (ceiling), and passes through absolute counts ≥ 1.
func (d *Dataset) AbsoluteSupport(rel float64) int {
	n := float64(d.NumTransactions())
	k := int(rel*n + 0.999999999)
	if k < 1 {
		k = 1
	}
	return k
}

// Stats summarizes a dataset.
type Stats struct {
	NumTransactions int
	NumItems        int
	MinLen, MaxLen  int
	AvgLen          float64
	Density         float64 // |R| / (|O|·|I|)
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	s := Stats{NumTransactions: len(d.tx), NumItems: d.numItems}
	if len(d.tx) == 0 {
		return s
	}
	s.MinLen = d.tx[0].Len()
	total := 0
	for _, t := range d.tx {
		n := t.Len()
		total += n
		if n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
	}
	s.AvgLen = float64(total) / float64(len(d.tx))
	if d.numItems > 0 {
		s.Density = float64(total) / (float64(len(d.tx)) * float64(d.numItems))
	}
	return s
}

// ItemSupports returns the absolute support of every single item.
func (d *Dataset) ItemSupports() []int {
	sup := make([]int, d.numItems)
	for _, t := range d.tx {
		for _, x := range t {
			sup[x]++
		}
	}
	return sup
}

// Slice returns the dataset restricted to the transactions [lo, hi),
// sharing their itemset slices with the parent. The item universe and
// name table are kept — a slice is the same context minus some
// objects, not a re-numbered projection — which is what makes slices
// composable with Concat: d.Slice(0, k) followed by the tail yields d
// back, transaction for transaction.
func (d *Dataset) Slice(lo, hi int) (*Dataset, error) {
	if lo < 0 || hi < lo || hi > len(d.tx) {
		return nil, fmt.Errorf("dataset: slice [%d,%d) outside [0,%d]", lo, hi, len(d.tx))
	}
	return &Dataset{tx: d.tx[lo:hi], numItems: d.numItems, names: d.names, ctxc: &ctxCache{}}, nil
}

// Concat returns the dataset holding a's transactions followed by b's —
// the append composition the incremental refresh path builds its new
// snapshot from. Transaction slices are shared with both parents. The
// item universe is the larger of the two; the name table is taken from
// whichever parent names that whole universe (preferring b, whose
// names include any items first seen in the appended batch), or
// dropped when neither does.
func Concat(a, b *Dataset) (*Dataset, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("dataset: Concat with nil dataset")
	}
	d := &Dataset{numItems: a.numItems, ctxc: &ctxCache{}}
	if b.numItems > d.numItems {
		d.numItems = b.numItems
	}
	d.tx = make([]itemset.Itemset, 0, len(a.tx)+len(b.tx))
	d.tx = append(d.tx, a.tx...)
	d.tx = append(d.tx, b.tx...)
	switch {
	case b.names != nil && len(b.names) >= d.numItems:
		d.names = b.names
	case a.names != nil && len(a.names) >= d.numItems:
		d.names = a.names
	}
	return d, nil
}

// Context is the binary-matrix view of a dataset: Rows[o] is the intent
// bitset of object o (over items), Cols[i] the extent bitset (tidset)
// of item i (over objects).
type Context struct {
	NumObjects int
	NumItems   int
	Rows       []bitset.Set
	Cols       []bitset.Set
}

// Context returns the bitset view. The view is built once — O(|R|) —
// on the first call and cached: miners, QueryService rebuilds and
// hot reloads that mine the same dataset repeatedly share one context
// instead of re-materializing |O|·|I| bits each time. Concurrent
// callers are safe (the build is guarded by a sync.Once), and the
// returned value is shared: treat it as read-only, like Transactions.
func (d *Dataset) Context() *Context {
	if d.ctxc == nil {
		// A Dataset not built by a constructor (zero value in tests):
		// fall back to an uncached build rather than racing on a lazily
		// created cache.
		return d.buildContext()
	}
	d.ctxc.once.Do(func() { d.ctxc.c = d.buildContext() })
	return d.ctxc.c
}

// buildContext materializes the bitset view.
func (d *Dataset) buildContext() *Context {
	c := &Context{
		NumObjects: len(d.tx),
		NumItems:   d.numItems,
		Rows:       make([]bitset.Set, len(d.tx)),
		Cols:       make([]bitset.Set, d.numItems),
	}
	for i := range c.Cols {
		c.Cols[i] = bitset.New(len(d.tx))
	}
	for o, t := range d.tx {
		row := bitset.New(d.numItems)
		for _, x := range t {
			row.Add(x)
			c.Cols[x].Add(o)
		}
		c.Rows[o] = row
	}
	return c
}

// Project returns a new dataset containing only the given items,
// renumbered densely in ascending order of their original ids, along
// with the mapping old→new (-1 for dropped items). Transactions that
// become empty are kept (objects are part of the context).
func (d *Dataset) Project(keep itemset.Itemset) (*Dataset, []int) {
	remap := make([]int, d.numItems)
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range keep {
		remap[old] = newID
	}
	nd := &Dataset{tx: make([]itemset.Itemset, len(d.tx)), numItems: keep.Len(), ctxc: &ctxCache{}}
	for i, t := range d.tx {
		nt := make(itemset.Itemset, 0, t.Len())
		for _, x := range t {
			if remap[x] >= 0 {
				nt = append(nt, remap[x])
			}
		}
		sort.Ints(nt)
		nd.tx[i] = nt
	}
	if d.names != nil {
		names := make([]string, keep.Len())
		for newID, old := range keep {
			if old < len(d.names) {
				names[newID] = d.names[old]
			}
		}
		nd.names = names
	}
	return nd, remap
}
